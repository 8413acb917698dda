#include "task/task.h"

#include <algorithm>

namespace acme::task {

Pool::Pool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  deques_ = std::vector<Deque>(workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> g(idle_mu_);
    shutdown_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Pool::grow_locked(Deque& d, std::size_t min_capacity) {
  std::size_t cap = std::max<std::size_t>(16, d.ring.size());
  while (cap < min_capacity) cap *= 2;
  if (cap == d.ring.size()) return;
  std::vector<Task> next(cap);
  const std::size_t old_mask = d.ring.size() - 1;
  const std::size_t count = d.tail - d.head;
  for (std::size_t i = 0; i < count; ++i) {
    next[i] = std::move(d.ring[(d.head + i) & old_mask]);
  }
  d.ring = std::move(next);
  d.head = 0;
  d.tail = count;
}

void Pool::enqueue(Task&& t, std::size_t hint) {
  Deque& d = deques_[hint % deques_.size()];
  {
    std::lock_guard<std::mutex> g(d.mu);
    if (d.ring.empty() || d.tail - d.head == d.ring.size()) {
      grow_locked(d, d.tail - d.head + 1);
    }
    d.ring[d.tail & (d.ring.size() - 1)] = std::move(t);
    ++d.tail;
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Empty critical section pairs the notify with the predicate re-check in
  // worker_loop: a worker between its pending_ load and its wait() cannot
  // miss this wakeup.
  { std::lock_guard<std::mutex> g(idle_mu_); }
  idle_cv_.notify_one();
}

bool Pool::try_pop_own(std::size_t self, Task& out) {
  Deque& d = deques_[self];
  std::lock_guard<std::mutex> g(d.mu);
  if (d.head == d.tail) return false;
  --d.tail;
  out = std::move(d.ring[d.tail & (d.ring.size() - 1)]);
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

bool Pool::try_steal(std::size_t self, Task& out) {
  const std::size_t n = deques_.size();
  for (std::size_t i = 1; i < n; ++i) {
    Deque& victim = deques_[(self + i) % n];
    Task batch[kStealBatch];
    std::size_t took = 0;
    {
      std::lock_guard<std::mutex> g(victim.mu);
      const std::size_t avail = victim.tail - victim.head;
      if (avail == 0) continue;
      took = std::min((avail + 1) / 2, kStealBatch);
      const std::size_t mask = victim.ring.size() - 1;
      for (std::size_t j = 0; j < took; ++j) {
        batch[j] = std::move(victim.ring[(victim.head + j) & mask]);
      }
      victim.head += took;
    }
    steals_.fetch_add(1, std::memory_order_relaxed);
    // Run the oldest stolen task now; requeue the rest on our own deque
    // (they stay "pending" — only the one we take to run decrements).
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    out = std::move(batch[0]);
    if (took > 1) {
      Deque& own = deques_[self];
      {
        std::lock_guard<std::mutex> g(own.mu);
        if (own.ring.empty() || own.tail - own.head + took - 1 > own.ring.size()) {
          grow_locked(own, own.tail - own.head + took - 1);
        }
        const std::size_t mask = own.ring.size() - 1;
        for (std::size_t j = 1; j < took; ++j) {
          own.ring[own.tail & mask] = std::move(batch[j]);
          ++own.tail;
        }
      }
      // Other sleepers can now steal from us.
      { std::lock_guard<std::mutex> g(idle_mu_); }
      idle_cv_.notify_all();
    }
    return true;
  }
  return false;
}

void Pool::worker_loop(std::size_t self) {
  for (;;) {
    Task t;
    if (try_pop_own(self, t) || try_steal(self, t)) {
      // Counted before it runs: the task's WaitGroup::done() then publishes
      // the count to whoever waits on the group.
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      t();
      continue;
    }
    std::unique_lock<std::mutex> lk(idle_mu_);
    idle_cv_.wait(lk, [&] {
      return shutdown_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (shutdown_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

}  // namespace acme::task
