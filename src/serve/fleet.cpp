#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/digest.h"
#include "obs/obs.h"
#include "snap/format.h"

namespace acme::serve {

namespace {

// Instrumentation handles are cached in function-local statics per the
// obs::MetricsRegistry contract (registered metrics are never destroyed;
// reset() zeroes them in place).
obs::Counter& serve_counter(const char* name, const char* help) {
  return obs::metrics().counter(name, help);
}

obs::Histogram& ttft_histogram() {
  static obs::Histogram& h = obs::metrics().histogram(
      "acme_serve_ttft_seconds", "Time to first token",
      obs::Histogram::exponential_buckets(0.01, 2.0, 14));
  return h;
}

obs::Histogram& e2e_histogram() {
  static obs::Histogram& h = obs::metrics().histogram(
      "acme_serve_e2e_seconds", "Request end-to-end latency",
      obs::Histogram::exponential_buckets(0.05, 2.0, 14));
  return h;
}

}  // namespace

std::uint64_t FleetReport::digest() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "offered=" << offered << ";completed=" << completed
     << ";rejected=" << rejected << ";failed=" << failed
     << ";attained=" << attained << ";prefill=" << prefill_tokens
     << ";decode=" << decode_tokens << ";steps=" << decode_steps
     << ";epochs=" << epochs << ";kills=" << replica_kills
     << ";rewarms=" << rewarms << ";horizon=" << horizon_seconds
     << ";ttft50=" << ttft_p50 << ";ttft99=" << ttft_p99
     << ";tpot50=" << tpot_p50 << ";tpot99=" << tpot_p99
     << ";e2e50=" << e2e_p50 << ";e2e99=" << e2e_p99
     << ";ttftm=" << ttft_mean << ";e2em=" << e2e_mean
     << ";occ=" << mean_batch_occupancy << ";queue=" << mean_queue_depth;
  return common::fnv1a(os.str());
}

std::string FleetReport::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << "offered " << offered << " ("
     << offered_rps() << " rps), completed " << completed << ", rejected "
     << rejected << ", failed " << failed << ", slo "
     << std::setprecision(1) << 100.0 * slo_attainment() << "%, goodput "
     << goodput_rps() << " rps, ttft p50/p99 " << std::setprecision(3)
     << ttft_p50 << "/" << ttft_p99 << " s, e2e p99 " << e2e_p99 << " s";
  return os.str();
}

ServeFleet::ServeFleet(sim::Engine& engine, ServeConfig config,
                       std::uint64_t seed)
    : engine_(engine),
      config_(std::move(config)),
      cost_(config_.model, config_.hw, comm::CollectiveModel(config_.fabric)),
      arrivals_(config_.traffic, seed) {
  ACME_CHECK_MSG(config_.replicas > 0, "serve fleet needs replicas");
  ACME_CHECK_MSG(config_.max_batch > 0, "max_batch must be positive");
  ACME_CHECK_MSG(config_.queue_cap > 0, "queue_cap must be positive");
  ACME_CHECK_MSG(config_.max_epoch_steps > 0, "max_epoch_steps must be positive");
  ACME_CHECK_MSG(config_.horizon_seconds > 0, "horizon must be positive");
  up_ = config_.replicas;
  reps_.resize(static_cast<std::size_t>(config_.replicas));
  for (Replica& rep : reps_) {
    rep.active_slot.reserve(static_cast<std::size_t>(config_.max_batch));
    rep.active_finish.reserve(static_cast<std::size_t>(config_.max_batch));
    rep.ring.resize(static_cast<std::size_t>(config_.queue_cap));
  }
  // Every request in flight or queued owns one pool slot; this bound is the
  // exact maximum, so the free list never grows past its reservation.
  const std::size_t slots =
      static_cast<std::size_t>(config_.replicas) *
      static_cast<std::size_t>(config_.max_batch + config_.queue_cap);
  pool_.resize(slots);
  free_slots_.reserve(slots);
  for (std::size_t i = slots; i-- > 0;)
    free_slots_.push_back(static_cast<std::uint32_t>(i));
}

void ServeFleet::start() {
  // Concurrently pending serve events: one arrival plus one epoch-or-rewarm
  // per replica. Reserving on top of whatever the engine already holds room
  // for (a colocated scheduler's completions) keeps the steady state free of
  // engine slot growth.
  engine_.reserve(engine_.capacity() + static_cast<std::size_t>(config_.replicas) + 2);
  queue_last_t_ = engine_.now();
  const double t0 = engine_.now() + arrivals_.next_interarrival(engine_.now());
  if (t0 <= config_.horizon_seconds)
    arrival_event_ = engine_.schedule_at(t0, [this] { arrival_fire(); });
}

void ServeFleet::touch_queue_integral() {
  const double now = engine_.now();
  queue_integral_ += static_cast<double>(queued_now_) * (now - queue_last_t_);
  queue_last_t_ = now;
}

int ServeFleet::pick_replica() const {
  int best = -1;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (int r = 0; r < static_cast<int>(reps_.size()); ++r) {
    const Replica& rep = reps_[static_cast<std::size_t>(r)];
    if (!rep.up) continue;
    if (rep.ring_count >= rep.ring.size()) continue;
    const std::size_t load = rep.active_slot.size() + rep.ring_count;
    if (load < best_load) {
      best_load = load;
      best = r;
    }
  }
  return best;
}

void ServeFleet::arrival_fire() {
  arrival_event_ = {};
  const double now = engine_.now();
  last_event_t_ = std::max(last_event_t_, now);
  const RequestSample s = arrivals_.sample_request();
  ++offered_;
  if (obs::enabled())
    serve_counter("acme_serve_requests_offered_total",
                  "Requests offered by the arrival process")
        .inc();
  // Chain the next arrival before dispatching this one so the event order is
  // (arrival, dispatch side effects) regardless of queue state.
  const double next = now + arrivals_.next_interarrival(now);
  if (next <= config_.horizon_seconds)
    arrival_event_ = engine_.schedule_at(next, [this] { arrival_fire(); });

  const std::uint64_t need =
      static_cast<std::uint64_t>(s.prompt_tokens) +
      static_cast<std::uint64_t>(s.output_tokens);
  const int r = pick_replica();
  if (r < 0 || free_slots_.empty() || need > cost_.kv_capacity_tokens()) {
    ++rejected_;
    if (obs::enabled())
      serve_counter("acme_serve_requests_rejected_total",
                    "Requests dropped with no replica able to take them")
          .inc();
    return;
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Request& req = pool_[slot];
  req.arrival = now;
  req.first_token = 0;
  req.prompt = s.prompt_tokens;
  req.output = s.output_tokens;
  req.span_id = next_span_id_++;
  if (obs::enabled())
    obs::tracer().async_begin("serve", "request", req.span_id);

  Replica& rep = reps_[static_cast<std::size_t>(r)];
  touch_queue_integral();
  rep.ring[(rep.ring_head + rep.ring_count) % rep.ring.size()] = slot;
  ++rep.ring_count;
  ++queued_now_;
  if (obs::enabled())
    obs::tracer().counter("serve", "queue_depth",
                          static_cast<double>(queued_now_));
  // Idle wakeup: a replica with no epoch pending admits immediately.
  if (!rep.stepping) plan_epoch(r);
}

void ServeFleet::plan_epoch(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (!rep.up || rep.stepping) return;
  const double now = engine_.now();

  // Admit FCFS from the ring while the batch and the KV budget allow. The
  // reservation is worst-case (prompt + full output), so admitted requests
  // never outgrow the cache mid-flight; the head of the line blocks until
  // enough residents complete.
  double prefill = 0;
  while (rep.ring_count > 0 &&
         rep.active_slot.size() < static_cast<std::size_t>(config_.max_batch)) {
    const std::uint32_t slot = rep.ring[rep.ring_head];
    Request& req = pool_[slot];
    const std::uint64_t need = static_cast<std::uint64_t>(req.prompt) +
                               static_cast<std::uint64_t>(req.output);
    if (rep.resident_tokens + need > cost_.kv_capacity_tokens()) break;
    rep.ring_head = (rep.ring_head + 1) % rep.ring.size();
    --rep.ring_count;
    touch_queue_integral();
    --queued_now_;
    rep.resident_tokens += need;
    // Prefills of one admission round run back to back before decode
    // resumes; the first output token of each request emerges from its own
    // prefill.
    prefill += cost_.prefill_seconds(static_cast<std::uint64_t>(req.prompt));
    prefill_tokens_ += static_cast<std::uint64_t>(req.prompt);
    req.first_token = now + prefill;
    // output >= 2 always (traffic clamps), so at least one decode step.
    const std::uint64_t finish =
        rep.steps + static_cast<std::uint64_t>(req.output) - 1;
    // Insert before every entry finishing at or before `finish`: the batch
    // stays descending, and older requests with the same finish stay nearer
    // the back.
    const auto at = static_cast<std::size_t>(
        std::lower_bound(rep.active_finish.begin(), rep.active_finish.end(),
                         finish, std::greater<>()) -
        rep.active_finish.begin());
    rep.active_finish.insert(
        rep.active_finish.begin() + static_cast<std::ptrdiff_t>(at), finish);
    rep.active_slot.insert(
        rep.active_slot.begin() + static_cast<std::ptrdiff_t>(at), slot);
  }
  if (rep.active_slot.empty()) return;  // idle until the next arrival

  // Epoch length: steps until the earliest completion (the back of the
  // batch), capped so queued requests get an admission scan at a bounded
  // cadence.
  const std::uint64_t k = std::min<std::uint64_t>(
      rep.active_finish.back() - rep.steps,
      static_cast<std::uint64_t>(config_.max_epoch_steps));
  const double step_s = cost_.decode_step_seconds(
      static_cast<int>(rep.active_slot.size()), rep.resident_tokens);
  rep.epoch_start = now;
  rep.epoch_prefill = prefill;
  rep.epoch_step_seconds = step_s;
  rep.epoch_base_steps = rep.steps;
  rep.epoch_end_steps = rep.steps + k;
  rep.epoch_end_time = now + prefill + static_cast<double>(k) * step_s;
  rep.stepping = true;
  rep.epoch = engine_.schedule_at(rep.epoch_end_time,
                                  [this, r] { epoch_fire(r); });
}

void ServeFleet::epoch_fire(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  const double now = engine_.now();
  last_event_t_ = std::max(last_event_t_, now);
  rep.stepping = false;
  rep.epoch = {};
  const std::uint64_t k = rep.epoch_end_steps - rep.epoch_base_steps;
  rep.steps = rep.epoch_end_steps;
  ++epochs_;
  decode_steps_ += k;
  const std::uint64_t batch = rep.active_slot.size();
  decode_tokens_ += k * batch;
  batch_integral_ += static_cast<double>(batch) * (now - rep.epoch_start);
  if (obs::enabled()) {
    serve_counter("acme_serve_epochs_total", "Batching epochs executed").inc();
    serve_counter("acme_serve_decode_tokens_total", "Decode tokens generated")
        .inc(k * batch);
  }

  // Settle completions off the back of the batch. k never exceeds the
  // distance to the earliest finish, so finishers land exactly at the epoch
  // boundary; the arithmetic form stays exact if that invariant is ever
  // relaxed.
  while (!rep.active_finish.empty() && rep.active_finish.back() <= rep.steps) {
    const std::uint32_t slot = rep.active_slot.back();
    const Request& req = pool_[slot];
    const double t =
        rep.epoch_start + rep.epoch_prefill +
        static_cast<double>(rep.active_finish.back() - rep.epoch_base_steps) *
            rep.epoch_step_seconds;
    rep.resident_tokens -= static_cast<std::uint64_t>(req.prompt) +
                           static_cast<std::uint64_t>(req.output);
    rep.active_slot.pop_back();
    rep.active_finish.pop_back();
    complete_request(slot, t);
  }
  plan_epoch(r);
}

void ServeFleet::complete_request(std::uint32_t slot, double completion_time) {
  Request& req = pool_[slot];
  ++completed_;
  const double ttft = req.first_token - req.arrival;
  const double e2e = completion_time - req.arrival;
  const double tpot = (completion_time - req.first_token) /
                      static_cast<double>(req.output - 1);
  ttft_.add(ttft);
  tpot_.add(tpot);
  e2e_.add(e2e);
  if (ttft <= config_.slo_ttft_seconds && tpot <= config_.slo_tpot_seconds)
    ++attained_;
  if (obs::enabled()) {
    serve_counter("acme_serve_requests_completed_total",
                  "Requests that generated their full output")
        .inc();
    ttft_histogram().observe(ttft);
    e2e_histogram().observe(e2e);
    obs::tracer().async_end("serve", "request", req.span_id);
  }
  free_slots_.push_back(slot);
}

void ServeFleet::fail_request(std::uint32_t slot) {
  ++failed_;
  if (obs::enabled()) {
    serve_counter("acme_serve_requests_failed_total",
                  "Requests lost to replica failures")
        .inc();
    obs::tracer().async_end("serve", "request", pool_[slot].span_id);
  }
  free_slots_.push_back(slot);
}

void ServeFleet::kill_replica(int index, double rewarm_seconds) {
  ACME_CHECK_MSG(index >= 0 && index < static_cast<int>(reps_.size()),
                 "replica index out of range");
  ACME_CHECK_MSG(rewarm_seconds >= 0, "negative rewarm time");
  Replica& rep = reps_[static_cast<std::size_t>(index)];
  if (!rep.up) return;  // failure landed on an already-dead replica
  const double now = engine_.now();
  last_event_t_ = std::max(last_event_t_, now);
  rep.up = false;
  --up_;
  ++kills_;
  if (obs::enabled())
    serve_counter("acme_serve_replica_kills_total",
                  "Replica failures injected")
        .inc();
  if (rep.stepping) {
    engine_.cancel(rep.epoch);
    rep.epoch = {};
    rep.stepping = false;
  }
  for (const std::uint32_t slot : rep.active_slot) fail_request(slot);
  rep.active_slot.clear();
  rep.active_finish.clear();
  rep.resident_tokens = 0;
  touch_queue_integral();
  while (rep.ring_count > 0) {
    fail_request(rep.ring[rep.ring_head]);
    rep.ring_head = (rep.ring_head + 1) % rep.ring.size();
    --rep.ring_count;
    --queued_now_;
  }
  const int r = index;
  rep.rewarm = engine_.schedule_after(rewarm_seconds, [this, r] { rewarm_fire(r); });
}

void ServeFleet::rewarm_fire(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  rep.rewarm = {};
  const double now = engine_.now();
  last_event_t_ = std::max(last_event_t_, now);
  rep.up = true;
  ++up_;
  ++rewarms_;
  if (obs::enabled())
    serve_counter("acme_serve_rewarms_total", "Replicas brought back up").inc();
  // The ring drained at kill time, so this only matters if arrivals raced the
  // rewarm onto this replica — they cannot (down replicas are unpickable) —
  // but the call keeps the invariant "an up replica with work is stepping".
  plan_epoch(r);
}

namespace {

// A histogram is written as count, sum and its nonzero bucket span (first
// index, then the counts): a few hundred buckets instead of 3072.
void write_histogram(snap::SnapshotWriter& w,
                     const common::LatencyHistogram& h) {
  const std::size_t first = std::min(h.first_nonzero(), h.end_nonzero());
  w.write_u64(h.count());
  w.write_f64(h.sum());
  w.write_u64(static_cast<std::uint64_t>(first));
  w.write_pod_span(h.buckets().data() + first, h.end_nonzero() - first);
}

void read_histogram(snap::SnapshotReader& r, common::LatencyHistogram& h) {
  const std::uint64_t count = r.read_u64();
  const double sum = r.read_f64();
  const std::uint64_t first = r.read_u64();
  std::vector<std::uint64_t> span;
  r.read_pod_vec(span);
  h.set_state(count, sum, static_cast<std::size_t>(first), span);
}

}  // namespace

void ServeFleet::save(snap::SnapshotWriter& w) const {
  w.begin_section("serve.fleet");
  const ArrivalProcess::State ap = arrivals_.state();
  snap::write_rng_state(w, ap.rng);
  snap::write_rng_state(w, ap.state_rng);
  w.write_bool(ap.burst);
  w.write_f64(ap.state_until);
  w.write_u64(arrival_event_.raw());
  w.write_u64(static_cast<std::uint64_t>(reps_.size()));
  for (const Replica& rep : reps_) {
    w.write_bool(rep.up);
    w.write_bool(rep.stepping);
    w.write_u64(rep.steps);
    w.write_u64(rep.resident_tokens);
    w.write_pod_vec(rep.active_slot);
    w.write_pod_vec(rep.active_finish);
    // The ring is written verbatim (head + count), stale tail entries and
    // all: identical memory layout means identical wrap behaviour.
    w.write_pod_vec(rep.ring);
    w.write_u64(static_cast<std::uint64_t>(rep.ring_head));
    w.write_u64(static_cast<std::uint64_t>(rep.ring_count));
    w.write_u64(rep.epoch.raw());
    w.write_u64(rep.rewarm.raw());
    w.write_f64(rep.epoch_start);
    w.write_f64(rep.epoch_prefill);
    w.write_f64(rep.epoch_step_seconds);
    w.write_f64(rep.epoch_end_time);
    w.write_u64(rep.epoch_base_steps);
    w.write_u64(rep.epoch_end_steps);
  }
  w.write_pod_vec(pool_);
  w.write_pod_vec(free_slots_);
  w.write_u64(offered_);
  w.write_u64(completed_);
  w.write_u64(rejected_);
  w.write_u64(failed_);
  w.write_u64(attained_);
  w.write_u64(prefill_tokens_);
  w.write_u64(decode_tokens_);
  w.write_u64(decode_steps_);
  w.write_u64(epochs_);
  w.write_i64(kills_);
  w.write_i64(rewarms_);
  w.write_u64(next_span_id_);
  w.write_f64(batch_integral_);
  w.write_f64(queue_integral_);
  w.write_f64(queue_last_t_);
  w.write_u64(queued_now_);
  w.write_f64(last_event_t_);
  write_histogram(w, ttft_);
  write_histogram(w, tpot_);
  write_histogram(w, e2e_);
  w.end_section();
}

void ServeFleet::restore(snap::SnapshotReader& r) {
  ACME_CHECK_MSG(offered_ == 0 && !arrival_event_.valid(),
                 "ServeFleet::restore requires a freshly constructed fleet "
                 "(start() never called)");
  r.enter_section("serve.fleet");
  ArrivalProcess::State ap;
  ap.rng = snap::read_rng_state(r);
  ap.state_rng = snap::read_rng_state(r);
  ap.burst = r.read_bool();
  ap.state_until = r.read_f64();
  arrivals_.set_state(ap);
  arrival_event_ = sim::EventHandle::from_raw(r.read_u64());
  const std::uint64_t rep_count = r.read_u64();
  ACME_CHECK_MSG(rep_count == reps_.size(),
                 "serve snapshot replica count does not match the config this "
                 "fleet was constructed from");
  up_ = 0;
  for (Replica& rep : reps_) {
    rep.up = r.read_bool();
    rep.stepping = r.read_bool();
    rep.steps = r.read_u64();
    rep.resident_tokens = r.read_u64();
    r.read_pod_vec(rep.active_slot);
    r.read_pod_vec(rep.active_finish);
    ACME_CHECK_MSG(rep.active_slot.size() == rep.active_finish.size() &&
                       rep.active_slot.size() <=
                           static_cast<std::size_t>(config_.max_batch),
                   "serve snapshot batch does not fit max_batch");
    r.read_pod_vec(rep.ring);
    ACME_CHECK_MSG(rep.ring.size() ==
                       static_cast<std::size_t>(config_.queue_cap),
                   "serve snapshot queue_cap does not match the config");
    rep.ring_head = static_cast<std::size_t>(r.read_u64());
    rep.ring_count = static_cast<std::size_t>(r.read_u64());
    rep.epoch = sim::EventHandle::from_raw(r.read_u64());
    rep.rewarm = sim::EventHandle::from_raw(r.read_u64());
    rep.epoch_start = r.read_f64();
    rep.epoch_prefill = r.read_f64();
    rep.epoch_step_seconds = r.read_f64();
    rep.epoch_end_time = r.read_f64();
    rep.epoch_base_steps = r.read_u64();
    rep.epoch_end_steps = r.read_u64();
    // The epoch pops finishers off the back, so the batch must be sorted
    // descending by finish step, and nobody in it may have finished yet.
    ACME_CHECK_MSG(std::is_sorted(rep.active_finish.begin(),
                                  rep.active_finish.end(), std::greater<>()),
                   "serve snapshot batch is not in descending finish order");
    ACME_CHECK_MSG(rep.active_finish.empty() ||
                       rep.active_finish.back() > rep.steps,
                   "serve snapshot batch holds a request past its finish step");
    if (rep.up) ++up_;
  }
  r.read_pod_vec(pool_);
  r.read_pod_vec(free_slots_);
  offered_ = r.read_u64();
  completed_ = r.read_u64();
  rejected_ = r.read_u64();
  failed_ = r.read_u64();
  attained_ = r.read_u64();
  prefill_tokens_ = r.read_u64();
  decode_tokens_ = r.read_u64();
  decode_steps_ = r.read_u64();
  epochs_ = r.read_u64();
  kills_ = static_cast<int>(r.read_i64());
  rewarms_ = static_cast<int>(r.read_i64());
  next_span_id_ = r.read_u64();
  batch_integral_ = r.read_f64();
  queue_integral_ = r.read_f64();
  queue_last_t_ = r.read_f64();
  queued_now_ = r.read_u64();
  last_event_t_ = r.read_f64();
  read_histogram(r, ttft_);
  read_histogram(r, tpot_);
  read_histogram(r, e2e_);
  r.leave_section();
  // Rebind every pending serve event into the restored spine.
  if (arrival_event_.valid())
    engine_.rebind(arrival_event_, [this] { arrival_fire(); });
  for (int i = 0; i < static_cast<int>(reps_.size()); ++i) {
    Replica& rep = reps_[static_cast<std::size_t>(i)];
    if (rep.epoch.valid()) {
      ACME_CHECK_MSG(rep.stepping, "epoch handle without a stepping replica");
      engine_.rebind(rep.epoch, [this, i] { epoch_fire(i); });
    }
    if (rep.rewarm.valid())
      engine_.rebind(rep.rewarm, [this, i] { rewarm_fire(i); });
  }
}

FleetReport ServeFleet::report() const {
  FleetReport rep;
  rep.offered = offered_;
  rep.completed = completed_;
  rep.rejected = rejected_;
  rep.failed = failed_;
  rep.attained = attained_;
  rep.prefill_tokens = prefill_tokens_;
  rep.decode_tokens = decode_tokens_;
  rep.decode_steps = decode_steps_;
  rep.epochs = epochs_;
  rep.replica_kills = kills_;
  rep.rewarms = rewarms_;
  rep.horizon_seconds = config_.horizon_seconds;
  rep.ttft_p50 = ttft_.quantile(0.5);
  rep.ttft_p99 = ttft_.quantile(0.99);
  rep.tpot_p50 = tpot_.quantile(0.5);
  rep.tpot_p99 = tpot_.quantile(0.99);
  rep.e2e_p50 = e2e_.quantile(0.5);
  rep.e2e_p99 = e2e_.quantile(0.99);
  rep.ttft_mean = ttft_.mean();
  rep.e2e_mean = e2e_.mean();
  // Time-weighted means over the span the fleet was actually live (the drain
  // can outrun the horizon; in a co-located world the engine clock keeps
  // going long after serving stopped).
  const double elapsed = std::max(config_.horizon_seconds, last_event_t_);
  const double queue_final =
      queue_integral_ +
      static_cast<double>(queued_now_) * (elapsed - queue_last_t_);
  rep.mean_queue_depth = queue_final / elapsed;
  rep.mean_batch_occupancy = batch_integral_ / elapsed;
  return rep;
}

}  // namespace acme::serve
