#include "sim/engine.h"

#include <limits>

#include "common/check.h"
#include "obs/obs.h"
#include "snap/format.h"

namespace acme::sim {

namespace {

// Cold path behind the obs::enabled() branch in step(): counts dispatches and
// samples queue depth every 4096 events so the trace stays bounded even over
// six-month replays.
void observe_dispatch(std::uint64_t fired, std::size_t pending) {
  static obs::Counter& events = obs::metrics().counter(
      "acme_sim_events_fired_total", "Events dispatched by sim::Engine");
  static obs::Histogram& depth = obs::metrics().histogram(
      "acme_sim_queue_depth", "Pending-event queue depth sampled at dispatch",
      obs::Histogram::exponential_buckets(1.0, 4.0, 10));
  events.inc();
  if ((fired & 0xfff) == 0) {
    depth.observe(static_cast<double>(pending));
    obs::tracer().counter("sim", "pending_events",
                          static_cast<double>(pending));
  }
}

}  // namespace

EventHandle Engine::acquire(Time when) {
  ACME_CHECK_MSG(when >= now_, "cannot schedule events in the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    ACME_CHECK_MSG(slots_.size() < kLaneTag, "engine slot ids exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint32_t seq = next_seq_++;
  slots_[slot].seq = seq;
  queue_push(Entry{when, seq, slot});
  ++live_;
  return EventHandle(slot, seq);
}

void Engine::post(Time when, std::uint32_t payload) {
  ACME_CHECK_MSG(when >= now_, "cannot schedule events in the past");
  ACME_CHECK_MSG(payload < kLaneTag, "lane payload needs the top bit clear");
  queue_push(Entry{when, next_seq_++, kLaneTag | payload});
  ++posted_;
}

void Engine::reserve(std::size_t events, std::size_t posts) {
  slots_.reserve(events);
  free_slots_.reserve(events);
  // Either queue level can receive any entry (the split follows push order,
  // not kind), so both are sized for the whole population.
  sorted_.reserve(events + posts);
  heap_.reserve(events + posts);
}

void Engine::reset() {
  now_ = 0;
  next_seq_ = 1;
  fired_ = 0;
  live_ = 0;
  posted_ = 0;
  post_handler_ = nullptr;
  unbound_ = 0;
  sorted_.clear();
  sorted_head_ = 0;
  heap_.clear();
  free_slots_.clear();
  // Refill the free list descending so acquire() hands out slot 0 first —
  // the same ids a fresh engine would grow into.
  for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size()); i-- > 0;) {
    slots_[i].fn.reset();
    slots_[i].seq = 0;
    free_slots_.push_back(i);
  }
}

void Engine::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.seq = 0;  // invalidates outstanding handles and stale heap entries
  free_slots_.push_back(slot);
  --live_;
}

bool Engine::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return false;
  if (slots_[handle.slot_].seq != handle.seq_) return false;
  retire(handle.slot_);
  return true;
}

bool Engine::step(Time horizon) {
  while (!queue_empty()) {
    bool from_sorted = false;
    const Entry top = queue_top(from_sorted);
    if ((top.slot & kLaneTag) != 0) return step_lane(top, from_sorted, horizon);
    if (slots_[top.slot].seq != top.seq) {
      queue_pop(from_sorted);  // cancelled: the slot moved on already
      continue;
    }
    if (top.time > horizon) return false;
    queue_pop(from_sorted);
    // Move the callback out before retiring: the callback may schedule new
    // events, and a freshly recycled slot must not alias the running closure.
    EventFn fn = std::move(slots_[top.slot].fn);
    ACME_CHECK_MSG(fn, "event lost its callback");
    retire(top.slot);
    now_ = top.time;
    ++fired_;
    if (obs::enabled()) observe_dispatch(fired_, pending());
    fn();
    return true;
  }
  return false;
}

// Lane entries are never cancelled, so there is no stale check.
bool Engine::step_lane(const Entry& top, bool from_sorted, Time horizon) {
  if (top.time > horizon) return false;
  ACME_CHECK_MSG(post_handler_,
                 "lane event fired with no post handler registered");
  queue_pop(from_sorted);
  --posted_;
  now_ = top.time;
  ++fired_;
  if (obs::enabled()) observe_dispatch(fired_, pending());
  post_handler_(top.slot & ~kLaneTag);
  return true;
}

std::size_t Engine::run_until(Time horizon) {
  std::size_t n = 0;
  while (step(horizon)) ++n;
  // Advance the clock to the horizon even if no event lands exactly there, so
  // successive run_until calls observe monotonically increasing time.
  if (horizon > now_ && horizon < std::numeric_limits<Time>::infinity()) now_ = horizon;
  return n;
}

std::size_t Engine::run() {
  ACME_OBS_SPAN("sim", "run");
  std::size_t n = 0;
  while (step(std::numeric_limits<Time>::infinity())) ++n;
  return n;
}

void Engine::save(snap::SnapshotWriter& w) const {
  w.begin_section("sim.engine");
  w.write_f64(now_);
  w.write_u32(next_seq_);
  w.write_u64(fired_);
  w.write_u64(static_cast<std::uint64_t>(live_));
  w.write_u64(static_cast<std::uint64_t>(posted_));
  // Slot count and the reserve() high-water travel ahead of the bulk arrays
  // so restore can size everything once, before the reads. The capacity hint
  // matters: subsystems re-issue their arm-time reserve() bound after the
  // engine restore, and without the hint that call would reallocate (and
  // move-relocate) the freshly filled slot vector.
  w.write_u64(static_cast<std::uint64_t>(slots_.size()));
  w.write_u64(static_cast<std::uint64_t>(slots_.capacity()));
  // Only the unpopped tail of the sorted run matters; the restore re-bases
  // the cursor at zero. The heap is written verbatim, stale entries and all
  // (they cost 16 bytes each and preserve the exact pop sequence). Lane
  // entries ride in both arrays as they are: tag, payload and seq.
  w.write_pod_span(sorted_.data() + sorted_head_, sorted_.size() - sorted_head_);
  w.write_pod_vec(heap_);
  // Slot generations are sparse by construction: retire() zeroes a slot's
  // seq, so only the `live_` occupied slots carry one. Saving (slot, seq)
  // pairs for those reproduces the full vector exactly and keeps the
  // section (and both save/restore passes) proportional to live events,
  // not slot capacity.
  std::vector<std::uint64_t> occupied;
  occupied.reserve(live_);
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].seq != 0)
      occupied.push_back(static_cast<std::uint64_t>(i) << 32 | slots_[i].seq);
  w.write_pod_vec(occupied);
  w.write_pod_vec(free_slots_);
  w.end_section();
}

void Engine::restore(snap::SnapshotReader& r) {
  ACME_CHECK_MSG(pending() == 0 && queue_empty() && now_ == 0 &&
                     next_seq_ == 1 && fired_ == 0,
                 "Engine::restore requires a fresh (or reset()) engine; "
                 "restoring over live events would orphan them");
  r.enter_section("sim.engine");
  now_ = r.read_f64();
  next_seq_ = r.read_u32();
  fired_ = r.read_u64();
  live_ = static_cast<std::size_t>(r.read_u64());
  posted_ = static_cast<std::size_t>(r.read_u64());
  // Recompute capacity bounds from the restored slot count before the bulk
  // reads, so restored replays keep the no-mid-run-reallocation guarantee
  // begin_replay established in the original run.
  const auto slot_count = static_cast<std::size_t>(r.read_u64());
  // The hint is advisory (a corrupt value costs memory, not correctness), so
  // clamp it; an under-reserve just means a later reserve() grows the pools.
  const auto capacity_hint =
      std::min(static_cast<std::size_t>(r.read_u64()), slot_count * 2 + 65536);
  reserve(std::max(slot_count, capacity_hint));
  r.read_pod_vec(sorted_);
  sorted_head_ = 0;
  r.read_pod_vec(heap_);
  std::vector<std::uint64_t> occupied;
  r.read_pod_vec(occupied);
  r.read_pod_vec(free_slots_);
  r.leave_section();
  slots_.clear();
  slots_.resize(slot_count);  // callbacks start empty; subsystems rebind
  for (const std::uint64_t packed : occupied) {
    const auto slot = static_cast<std::size_t>(packed >> 32);
    ACME_CHECK_MSG(slot < slots_.size(),
                   "snapshot slot generation references a slot out of range");
    slots_[slot].seq = static_cast<std::uint32_t>(packed);
  }
  unbound_ = live_;
}

}  // namespace acme::sim
