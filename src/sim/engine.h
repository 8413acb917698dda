// Discrete-event simulation engine.
//
// A single-threaded priority-queue scheduler: events fire in (time, sequence)
// order so that ties are broken deterministically by insertion order. Events
// are cancellable (needed by the scheduler when a job is killed while its
// completion event is pending) and may schedule further events while firing.
//
// The engine is the shared spine of every integrated run (acme::world): all
// subsystems accept an Engine& instead of constructing their own, so failure,
// recovery, scheduling and evaluation events interleave on one clock.
//
// Per-event bookkeeping is a generation-tagged slot vector: a handle is a
// (slot, seq) pair, the slot array owns the callback, and the heap entry
// carries the same pair. The global insertion sequence doubles as the slot's
// generation tag — it is unique per occupancy — so a stale heap entry or
// handle is detected with one array load, heap entries stay 16 bytes, and
// handles stay O(1)-cancellable and safe to use after the event fired
// (double-cancel / cancel-after-fire return false).
//
// Bulk pre-posted events (a replay's submissions) skip the slot vector: a
// post() carries a u32 payload in the run-queue entry itself and fires the
// one handler its owner registered, so the engine's per-event state is one
// 16-byte entry instead of an entry plus a 64-byte slot. These "lane" events
// draw their seq from the same counter as schedule_at, so the (time, seq)
// pop order is the same as if each had been scheduled with a callback; they
// cannot be cancelled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/inline_fn.h"

namespace acme::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace acme::snap

namespace acme::sim {

using Time = double;  // seconds since simulation start

// Event callbacks live inline in the slot vector — no per-event heap
// allocation, ever (a capture that outgrows the budget is a compile error at
// the schedule site, see common::InlineFn). 40 bytes covers the largest
// current capture (evalsched's trial closures: shared_ptr + indices + a
// timestamp) and makes one Slot exactly a cache line: 40-byte buffer +
// invoke/relocate pointers + the generation tag = 64 bytes, so the stale
// check, the callback and its capture are one memory access per event.
inline constexpr std::size_t kEventCaptureBytes = 40;
using EventFn = common::InlineFn<kEventCaptureBytes>;

class Engine;

// Opaque handle for cancelling a scheduled event. Default-constructed handles
// are inert. A handle never dangles: once its event fired or was cancelled,
// the slot's occupancy seq moved on and every further cancel() is a cheap
// no-op.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return seq_ != 0; }

  // Snapshot support: a handle round-trips through a u64 so subsystems can
  // persist the handles they hold and rebind their callbacks on restore.
  std::uint64_t raw() const {
    return (static_cast<std::uint64_t>(slot_) << 32) | seq_;
  }
  static EventHandle from_raw(std::uint64_t raw) {
    return EventHandle(static_cast<std::uint32_t>(raw >> 32),
                       static_cast<std::uint32_t>(raw));
  }

 private:
  friend class Engine;
  EventHandle(std::uint32_t slot, std::uint32_t seq) : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint32_t seq_ = 0;  // 0 = inert; live seqs start at 1
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (>= now). Returns a handle
  // that can cancel the event before it fires. The callable is constructed
  // in place in its slot (no intermediate moves); its capture must fit
  // kEventCaptureBytes — checked at compile time.
  template <typename F>
  EventHandle schedule_at(Time when, F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, std::nullptr_t>) {
      ACME_CHECK_MSG(fn != nullptr, "null event callback");
      return {};
    } else {
      if constexpr (std::is_same_v<std::decay_t<F>, std::function<void()>> ||
                    std::is_same_v<std::decay_t<F>, EventFn>)
        ACME_CHECK_MSG(fn, "null event callback");
      const EventHandle handle = acquire(when);
      if constexpr (std::is_same_v<std::decay_t<F>, EventFn>)
        slots_[handle.slot_].fn = std::forward<F>(fn);
      else
        slots_[handle.slot_].fn.emplace(std::forward<F>(fn));
      return handle;
    }
  }
  // Schedules `fn` to run `delay` seconds from now.
  template <typename F>
  EventHandle schedule_after(Time delay, F&& fn) {
    ACME_CHECK_MSG(delay >= 0, "negative delay");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventHandle handle);

  // Handler for lane events: called with the payload of each post() as it
  // fires. One per engine; registering replaces the previous handler.
  using PostFn = std::function<void(std::uint32_t)>;
  void set_post_handler(PostFn fn) { post_handler_ = std::move(fn); }
  // Posts a lane event at absolute time `when` (>= now): no slot, no handle,
  // no cancel. `payload` must be below 2^31 (the top bit tags lane entries).
  void post(Time when, std::uint32_t payload);

  // Pre-sizes the engine for `events` concurrently pending slot events plus
  // `posts` lane events. Purely an optimization: growing past the
  // reservation still works, but a drain that stays inside it never
  // reallocates (slot-vector doubling would move-relocate every live
  // callback). Capacity only grows; untouched capacity costs address space,
  // not resident memory.
  void reserve(std::size_t events, std::size_t posts = 0);
  // Slot events the engine holds without growing its slot vector.
  std::size_t capacity() const { return slots_.capacity(); }

  // Returns the engine to its initial state (t = 0, no pending events, seq
  // restarted, no post handler) while keeping the slot and run-queue
  // capacity. Because the clock restarts at zero, a reused engine produces
  // bit-identical event times to a brand-new one — the basis for Monte Carlo
  // scratch reuse.
  void reset();

  // Runs events until the queue is empty or the horizon is reached. Events
  // scheduled exactly at the horizon still fire. Returns number of events run.
  std::size_t run_until(Time horizon);
  // Runs everything (horizon = infinity).
  std::size_t run();
  // Fires at most one event; returns false if queue empty or next event is
  // beyond `horizon`.
  bool step(Time horizon);

  // Exact count of live (scheduled or posted, not yet fired or cancelled)
  // events; maintained as counters, so accuracy does not depend on how many
  // cancelled entries still sit in the heap.
  std::size_t pending() const { return live_ + posted_; }
  std::uint64_t events_fired() const { return fired_; }

  // --- Snapshot support (acme::snap, DESIGN.md §12) ---
  //
  // Callbacks are type-erased closures (InlineFn) and cannot be serialized;
  // instead save() persists the queue STRUCTURE verbatim — clock, sequence
  // counter, slot generations, free list, both run-queue levels (lane
  // entries included) — and each subsystem re-installs its own callbacks
  // into the restored slots via rebind(), and its post handler via
  // set_post_handler(). Because the (time, seq) entries are byte-identical,
  // the restored engine pops events in exactly the original order, which is
  // what makes restored-run digests byte-identical to straight-through runs.
  // A restored lane event that fires with no handler registered is a loud
  // ACME_CHECK failure.
  void save(snap::SnapshotWriter& w) const;
  // Restores into a fresh or reset() engine only (non-empty restore is a
  // loud ACME_CHECK failure); recomputes reserve() bounds from the restored
  // slot count so capacity invariants survive the round-trip.
  void restore(snap::SnapshotReader& r);
  // Re-installs the callback for a restored pending event. The handle must
  // reference a live, not-yet-rebound slot.
  template <typename F>
  void rebind(EventHandle handle, F&& fn) {
    ACME_CHECK_MSG(handle.valid() && handle.slot_ < slots_.size() &&
                       slots_[handle.slot_].seq == handle.seq_,
                   "rebind on a handle that references no pending event");
    Slot& s = slots_[handle.slot_];
    ACME_CHECK_MSG(!s.fn, "rebind on an already-bound event slot");
    s.fn.emplace(std::forward<F>(fn));
    if (unbound_ > 0) --unbound_;
  }
  // Pending slot events whose callback has not been rebound yet; a fully
  // restored world must bring this to zero before running. Maintained as a
  // counter (restore() arms it with the live slot-event count, every
  // rebind() retires one) so the check does not re-walk the slot vector.
  // Lane events never count: they have no callback to rebind.
  std::size_t unbound() const { return unbound_; }

 private:
  // 16 bytes: seq both breaks time ties deterministically (insertion order)
  // and tags the slot occupancy for staleness checks. u32 seq uniquely
  // orders ~4.3 billion schedules per Engine; a six-month integrated replay
  // fires ~2 million events, three orders of magnitude of headroom.
  struct Entry {
    Time time;
    std::uint32_t seq;   // global insertion order, breaks time ties
    std::uint32_t slot;  // slot id, or kLaneTag | payload for a lane event
    // Ordered as a min-heap on (time, seq).
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  // Marks a lane entry; slot ids stay below it (2^31 slots would be 128 GiB).
  static constexpr std::uint32_t kLaneTag = 0x80000000u;
  // One callback slot, reused across events; exactly one cache line. seq is
  // the insertion seq of the current occupant (0 = vacant); retiring the
  // slot (fire or cancel) zeroes it, invalidating outstanding handles and
  // heap entries that still reference the old occupancy.
  struct Slot {
    EventFn fn;
    std::uint32_t seq = 0;
  };

  // Claims a slot for an event at `when` (validates the time, pushes the heap
  // entry, bumps the live count) and returns its handle; the caller installs
  // the callback into slots_[handle.slot_].fn.
  EventHandle acquire(Time when);

  // step() for a lane entry at the front of the queue.
  bool step_lane(const Entry& top, bool from_sorted, Time horizon);

  // Retires a slot: drops the callback, bumps the generation and recycles the
  // index. Callers own the fn move-out when they need to run it first.
  void retire(std::uint32_t slot);

  // Two-level priority queue. Entries pushed in ascending (time, seq) order
  // append to `sorted_` and pop by advancing a cursor — O(1) and sequential.
  // Out-of-order pushes go to a conventional binary min-heap. The global
  // minimum is the smaller of the two fronts under the identical (time, seq)
  // comparison, so the pop order is exactly that of a single heap. The split
  // pays off because a replay posts every submission up front in submit
  // order: the bulk lives in the cursor run and the heap holds only the live
  // completions — small enough to stay cache-resident.
  void queue_push(const Entry& e) {
    if (sorted_head_ == sorted_.size()) {
      sorted_.clear();
      sorted_head_ = 0;
    }
    if (sorted_.empty() || e > sorted_.back()) {
      sorted_.push_back(e);
    } else {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }
  bool queue_empty() const {
    return sorted_head_ == sorted_.size() && heap_.empty();
  }
  // Precondition: !queue_empty(). Returns the front entry and whether it
  // comes from the sorted run (pass that flag back to queue_pop).
  const Entry& queue_top(bool& from_sorted) const {
    from_sorted = sorted_head_ < sorted_.size() &&
                  (heap_.empty() || heap_.front() > sorted_[sorted_head_]);
    return from_sorted ? sorted_[sorted_head_] : heap_.front();
  }
  void queue_pop(bool from_sorted) {
    if (from_sorted) {
      ++sorted_head_;
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
  }

  Time now_ = 0;
  std::uint32_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;    // pending slot events
  std::size_t posted_ = 0;  // pending lane events
  PostFn post_handler_;
  std::vector<Entry> sorted_;  // ascending run, popped at sorted_head_
  std::size_t sorted_head_ = 0;
  std::vector<Entry> heap_;  // out-of-order pushes, binary min-heap
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Restored-but-not-yet-rebound events (zero outside a restore cycle:
  // schedule_at installs callbacks at acquire time).
  std::size_t unbound_ = 0;
};

}  // namespace acme::sim
