// Work-stealing task runtime — the one execution substrate in AcmeSim. It
// runs independent Monte Carlo replicas (mc::ReplicationPlan, and through it
// world::run_world_mc) with parallel_for.
//
// Shape (marl-style, scaled to this codebase's needs):
//  - a fixed pool of worker threads, each owning a ring deque of tasks;
//  - owners pop LIFO from the back (cache-warm continuation order), thieves
//    steal HALF the victim's queue from the front (oldest first), so one
//    imbalanced spawn burst redistributes in O(log n) steals instead of one
//    task per steal;
//  - tasks are common::InlineFn closures stored inline in the rings, so a
//    spawn allocates only when a ring has to grow;
//  - a WaitGroup is the deterministic barrier: parallel_for spawns one task
//    per chunk of indices and returns only after every chunk finished.
//
// Determinism contract: the POOL is not deterministic (steal order races);
// everything built on it must derive its outputs from task RESULTS combined
// in a canonical order after a WaitGroup barrier, never from completion
// order. mc::ReplicationPlan writes replica i into slot i and folds the
// slots in index order; test_determinism pins the resulting digests at
// every thread count.
//
// Exceptions: every task is spawned against a WaitGroup; a throwing task is
// captured into the group (first error wins) and rethrown from wait() on the
// coordinating thread, after the barrier — so an ACME_CHECK failure in one
// replica surfaces exactly like it does serially.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/inline_fn.h"

namespace acme::task {

// 56 bytes of capture + the two InlineFn pointers = 72-byte task slots. The
// budget covers the WaitGroup wrapper (one pointer) plus parallel_for's
// chunk closure (body pointer, begin, end) with room to spare; outgrowing it
// is a compile error at the spawn site.
inline constexpr std::size_t kTaskCaptureBytes = 56;
using Task = common::InlineFn<kTaskCaptureBytes>;

// Completion barrier with exception transport. add() before (or at) spawn,
// done() exactly once per task, wait() blocks until the count returns to
// zero and rethrows the first captured task exception.
class WaitGroup {
 public:
  WaitGroup() = default;
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void add(std::size_t n = 1) {
    std::lock_guard<std::mutex> g(mu_);
    count_ += n;
  }

  void done() {
    // Notify while still holding mu_: the groups are stack-local in their
    // waiters (parallel_for, direct spawn callers), so the waiter may destroy
    // the group the instant wait()'s predicate turns true. Keeping the
    // notify inside the lock means wait() cannot observe count_ == 0 until
    // this thread is past every touch of the group's members.
    std::lock_guard<std::mutex> g(mu_);
    ACME_CHECK_MSG(count_ > 0, "WaitGroup::done without a matching add");
    if (--count_ == 0) cv_.notify_all();
  }

  // Stashes std::current_exception() (first one wins). Called from inside a
  // task's catch block, before done().
  void capture_current_exception() {
    std::lock_guard<std::mutex> g(mu_);
    if (!error_) error_ = std::current_exception();
  }

  // Blocks until the count reaches zero, then rethrows the first captured
  // task exception (clearing it, so the group is reusable after a failure).
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return count_ == 0; });
    if (error_) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      lk.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t count_ = 0;
  std::exception_ptr error_;
};

class Pool {
 public:
  // workers == 0 picks std::thread::hardware_concurrency() (min 1). The pool
  // always spawns exactly `workers` threads; the coordinating thread does not
  // execute tasks (it blocks in WaitGroup::wait), so workers == N means N
  // concurrent tasks. More workers than cores is legal — the
  // determinism tests run workers=8 on any box — it just oversubscribes.
  explicit Pool(std::size_t workers = 0);
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  // Joins the workers. The pool must be quiescent (every spawned task waited
  // on) — leftover tasks are still drained, but submitting concurrently with
  // destruction is a caller bug.
  ~Pool();

  std::size_t size() const { return workers_.size(); }

  // Spawns fn on the deque of worker `hint % size()` (callers round-robin
  // their own counter for deterministic placement), tied to `wg`: add(1) now,
  // exceptions captured into the group, done() when the task finishes.
  template <typename F>
  void spawn(WaitGroup& wg, std::size_t hint, F&& fn) {
    wg.add(1);
    WaitGroup* group = &wg;
    Task t([group, f = std::forward<F>(fn)]() mutable {
      try {
        f();
      } catch (...) {
        group->capture_current_exception();
      }
      group->done();
    });
    enqueue(std::move(t), hint);
  }

  // Runs fn(i) for every i in [0, n) in contiguous chunks of `grain`
  // indices, blocking until all of them finish; rethrows the first task
  // exception. Must not be called from inside a pool task (the caller
  // blocks; a worker blocking on its own pool can deadlock).
  template <typename F>
  void parallel_for(std::size_t n, std::size_t grain, F&& fn) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    WaitGroup wg;
    const auto* body = &fn;  // caller blocks below, so the reference outlives
    std::size_t chunk = 0;
    for (std::size_t begin = 0; begin < n; begin += grain, ++chunk) {
      const std::size_t end = std::min(begin + grain, n);
      spawn(wg, chunk, [body, begin, end] {
        for (std::size_t i = begin; i < end; ++i) (*body)(i);
      });
    }
    wg.wait();
  }

  // Diagnostics (relaxed counters; exact once the pool is quiescent).
  // tasks_run() counts a task as it starts, so it already covers every task
  // of a group whose wait() has returned.
  std::uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  // Per-worker ring deque. All access is under `mu` — with steal-half the
  // lock is taken once per ~batch of tasks, not once per task, so a plain
  // mutex beats a lock-free Chase-Lev deque in both simplicity and TSan
  // auditability at this grain size. head/tail are monotone; ring indices
  // are masked.
  struct alignas(64) Deque {
    std::mutex mu;
    std::vector<Task> ring;  // capacity always a power of two
    std::size_t head = 0;    // next steal slot (oldest task)
    std::size_t tail = 0;    // next push slot
  };

  static constexpr std::size_t kStealBatch = 8;

  void enqueue(Task&& t, std::size_t hint);
  bool try_pop_own(std::size_t self, Task& out);
  bool try_steal(std::size_t self, Task& out);
  void worker_loop(std::size_t self);
  static void grow_locked(Deque& d, std::size_t min_capacity);

  std::vector<Deque> deques_;
  std::vector<std::thread> workers_;

  // Count of queued-but-not-yet-taken tasks; the condvar predicate. Stealing
  // moves tasks between deques without touching it — only taking a task to
  // run decrements — so "pending == 0" exactly means "nothing to pick up".
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> steals_{0};

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool shutdown_ = false;  // guarded by idle_mu_
};

}  // namespace acme::task
