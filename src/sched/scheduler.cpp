#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/check.h"
#include "obs/obs.h"
#include "snap/format.h"

namespace acme::sched {

namespace {

obs::Counter& placements_counter() {
  static obs::Counter& c = obs::metrics().counter(
      "acme_sched_placements_total", "Jobs placed onto GPUs by SchedulerReplay");
  return c;
}

obs::Counter& preemptions_counter() {
  static obs::Counter& c = obs::metrics().counter(
      "acme_sched_preemptions_total", "Running jobs evicted by SchedulerReplay");
  return c;
}

obs::Counter& kills_counter() {
  static obs::Counter& c = obs::metrics().counter(
      "acme_sched_failure_kills_total",
      "Running jobs killed mid-replay by injected failures");
  return c;
}

obs::Histogram& queue_depth_histogram() {
  static obs::Histogram& h = obs::metrics().histogram(
      "acme_sched_queue_depth", "Total queued jobs sampled at each dispatch pass",
      obs::Histogram::exponential_buckets(1.0, 4.0, 10));
  return h;
}

}  // namespace

SchedulerConfig seren_scheduler_config() {
  SchedulerConfig c;
  c.pretrain_reservation = 0.68;
  c.eval_cap_fraction = 0.030;
  return c;
}

SchedulerConfig kalos_scheduler_config() {
  SchedulerConfig c;
  c.pretrain_reservation = 0.90;
  c.eval_cap_fraction = 0.010;
  return c;
}

cluster::ClusterSpec SchedulerReplay::partition_spec(const cluster::ClusterSpec& spec,
                                                     int nodes) {
  cluster::ClusterSpec p = spec;
  p.node_count = nodes;  // zero nodes (preemptive mode) is a valid partition
  return p;
}

SchedulerReplay::SchedulerReplay(const cluster::ClusterSpec& spec,
                                 SchedulerConfig config)
    : SchedulerReplay(std::make_unique<sim::Engine>(), spec, config) {}

SchedulerReplay::SchedulerReplay(std::unique_ptr<sim::Engine> owned,
                                 const cluster::ClusterSpec& spec,
                                 SchedulerConfig config)
    : SchedulerReplay(*owned, spec, config) {
  owned_engine_ = std::move(owned);
}

SchedulerReplay::SchedulerReplay(sim::Engine& engine,
                                 const cluster::ClusterSpec& spec,
                                 SchedulerConfig config)
    : spec_(spec),
      config_(config),
      engine_(&engine),
      reserved_(partition_spec(
          spec, static_cast<int>(
                    std::lround(config.pretrain_reservation * spec.node_count)))),
      shared_(partition_spec(
          spec,
          spec.node_count - static_cast<int>(std::lround(config.pretrain_reservation *
                                                         spec.node_count)))) {
  ACME_CHECK(shared_.node_count() > 0);
  ACME_CHECK(config_.allow_preemption || reserved_.node_count() > 0);
  eval_cap_ = static_cast<int>(
      std::lround(config_.eval_cap_fraction * spec.node_count * spec.node.gpus));
  eval_cap_ = std::max(eval_cap_, spec_.node.gpus);
}

SchedulerReplay::QueueClass SchedulerReplay::classify(trace::WorkloadType type) {
  switch (type) {
    case trace::WorkloadType::kPretrain:
      return QueueClass::kPretrain;
    case trace::WorkloadType::kEvaluation:
      return QueueClass::kEvaluation;
    default:
      return QueueClass::kNormal;
  }
}

ReplayResult SchedulerReplay::replay(trace::Trace input, double sample_interval) {
  // A reused single-silo instance restarts its private clock at zero: the
  // results are bit-identical to a fresh instance (same float arithmetic)
  // and the engine's event storage is recycled instead of regrown.
  if (owned_engine_) owned_engine_->reset();
  begin_replay(std::move(input), sample_interval);
  engine_->run();
  return finish_replay();
}

void SchedulerReplay::begin_replay(trace::Trace input, double sample_interval) {
  jobs_ = std::move(input);
  ACME_OBS_SPAN_ARG("sched", "begin_replay", "jobs", std::to_string(jobs_.size()));
  for (auto& queue : queues_) queue = common::IndexList{};
  for (auto& pool : running_pools_) pool = common::IndexList{};
  result_storage_ = ReplayResult{};
  result_ = &result_storage_;
  replay_start_ = engine_->now();
  pending_submissions_ = 0;
  capacity_freed_ = true;
  reset_runtime_state();

  const int total_gpus = reserved_.total_gpus() + shared_.total_gpus();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const auto& job = jobs_[i];
    if (!job.is_gpu_job()) continue;  // CPU jobs bypass the GPU scheduler
    ACME_CHECK_MSG(job.gpus <= total_gpus,
                   "job demands more GPUs than the cluster has");
    ++pending_submissions_;
    engine_->post(replay_start_ + job.submit_time,
                  static_cast<std::uint32_t>(i));
  }

  sample_interval_ = sample_interval;
  sample_event_ = {};
  if (sample_interval > 0) {
    sample_event_ = engine_->schedule_at(replay_start_, [this, sample_interval] {
      sample_occupancy(sample_interval);
    });
  }
}

void SchedulerReplay::reset_runtime_state() {
  // Slot events: each running job keeps one completion live and holds at
  // least one GPU, so completions never outnumber the GPUs; +4 covers the
  // sampler and the world's failure chains. Lane events: one submission per
  // job. Reserving both keeps the drain from reallocating engine storage.
  const auto total_gpus = static_cast<std::size_t>(
      std::max(0, reserved_.total_gpus() + shared_.total_gpus()));
  engine_->reserve(total_gpus + 4, jobs_.size());
  engine_->set_post_handler([this](std::uint32_t i) { on_submit(i); });
  // running_pretrain_jobs() fills scratch with one entry per running job; a
  // GPU bound keeps the world's mid-drain kill routing allocation-free.
  pretrain_scratch_.clear();
  pretrain_scratch_.reserve(total_gpus);

  // The pool and its arenas are reserved for every job at once, which costs
  // address space only: pages are touched up to the live high-water, and
  // the drain never reallocates (a record is never moved).
  rec_of_.assign(jobs_.size(), kNoRecord);
  recs_.clear();
  recs_.reserve(jobs_.size());
  queue_links_ = common::IndexLinks{};
  pool_links_ = common::IndexLinks{};
  queue_links_.reserve(jobs_.size());
  pool_links_.reserve(jobs_.size());
  free_recs_.clear();
  free_recs_.reserve(jobs_.size());
}

std::uint32_t SchedulerReplay::new_record() {
  // A record per GPU job at most: the reservation is never outgrown, so no
  // record ever moves.
  ACME_CHECK_MSG(recs_.size() < recs_.capacity(), "record pool outgrew its reservation");
  recs_.emplace_back();
  queue_links_.add();
  return pool_links_.add();
}

std::uint32_t SchedulerReplay::take_record(std::uint32_t index) {
  const trace::JobRecord& job = jobs_[index];
  std::uint32_t id;
  if (!free_recs_.empty()) {
    id = free_recs_.back();
    free_recs_.pop_back();
  } else {
    id = new_record();
  }
  JobRec& rec = recs_[id];
  rec = JobRec{};
  rec.job = index;
  rec.gpus = job.gpus;
  rec.cls = classify(job.type);
  rec_of_[index] = id;
  return id;
}

bool SchedulerReplay::place(cluster::ClusterState& part, std::uint32_t r) {
  const auto alloc = part.try_allocate(recs_[r].gpus);
  if (alloc) recs_[r].alloc = *alloc;
  return alloc.has_value();
}

void SchedulerReplay::stop_running(std::uint32_t r) {
  JobRec& rec = recs_[r];
  (rec.on_reserved ? reserved_ : shared_).release(rec.alloc);
  rec.alloc = {};
  rec.on_reserved = false;
  capacity_freed_ = true;
  running_pools_[rec.cls == QueueClass::kPretrain ? kPoolPretrain : kPoolBestEffort]
      .erase(pool_links_, r);
  if (rec.cls == QueueClass::kEvaluation) {
    eval_gpus_in_use_ -= rec.gpus;
    ACME_CHECK(eval_gpus_in_use_ >= 0);
  }
  --running_jobs_;
}

std::uint32_t SchedulerReplay::live_record(std::size_t index) const {
  ACME_CHECK_MSG(index < rec_of_.size() && rec_of_[index] != kNoRecord,
                 "job is neither queued nor running");
  return rec_of_[index];
}

const std::vector<std::size_t>& SchedulerReplay::running_pretrain_jobs() const {
  pretrain_scratch_.clear();
  const common::IndexList& pool = running_pools_[kPoolPretrain];
  for (std::uint32_t r = pool.front(); r != common::kIndexNpos;
       r = common::IndexList::next_of(pool_links_, r))
    pretrain_scratch_.push_back(recs_[r].job);
  return pretrain_scratch_;
}

ReplayResult SchedulerReplay::finish_replay() {
  ACME_CHECK_MSG(result_ != nullptr, "finish_replay without begin_replay");
  ReplayResult result = std::move(result_storage_);
  result_storage_ = ReplayResult{};
  result_ = nullptr;
  result.makespan = engine_->now() - replay_start_;
  result.unstarted = queues_[0].size() + queues_[1].size() + queues_[2].size();
  result.jobs = std::move(jobs_);
  jobs_.clear();
  // The sampler appended one sample per tick with doubling growth; a report
  // keeps the timeline for its lifetime, so drop the unused tail.
  result.occupancy.shrink_to_fit();
  // Stale records and links are harmless: begin_replay resets the pool.
  for (auto& queue : queues_) queue = common::IndexList{};
  return result;
}

bool SchedulerReplay::drained() const {
  return pending_submissions_ == 0 && running_jobs_ == 0 &&
         queues_[0].empty() && queues_[1].empty() && queues_[2].empty();
}

void SchedulerReplay::sample_occupancy(double interval) {
  sample_event_ = {};
  ReplayResult::OccupancySample s;
  s.time = engine_->now() - replay_start_;
  s.total_gpus = reserved_.total_gpus() + shared_.total_gpus();
  s.busy_gpus = s.total_gpus - reserved_.free_gpus_including_cordoned() -
                shared_.free_gpus_including_cordoned();
  s.running_jobs = running_jobs_;
  s.queued_jobs =
      static_cast<int>(queues_[0].size() + queues_[1].size() + queues_[2].size());
  result_->occupancy.push_back(s);
  // Re-arm while any activity remains on the spine.
  if (engine_->pending() > 0)
    sample_event_ = engine_->schedule_after(
        interval, [this, interval] { sample_occupancy(interval); });
}

void SchedulerReplay::on_submit(std::uint32_t index) {
  ACME_CHECK(pending_submissions_ > 0);
  --pending_submissions_;
  const std::uint32_t r = take_record(index);
  JobRec& rec = recs_[r];
  rec.waiting_since = engine_->now();
  auto& queue = queues_[static_cast<int>(rec.cls)];
  const std::size_t ahead = queue.size();
  queue.push_back(queue_links_, r);
  // Coalesced dispatch: when nothing freed capacity since the last full scan,
  // every already-queued job would fail try_start again (allocation failure
  // is monotone while capacity only shrinks, and the eval cap's in-use total
  // only grows between frees), so the arrival itself is the only fresh
  // candidate — and only if it sits within the backfill window, exactly as
  // the full scan would reach it after `ahead` older failures. Preemption
  // modes always rescan: their try_start has eviction side effects.
  if (!capacity_freed_ && !config_.allow_preemption &&
      !config_.preempt_pretraining_for_fairness) {
    if (obs::enabled()) {
      queue_depth_histogram().observe(static_cast<double>(
          queues_[0].size() + queues_[1].size() + queues_[2].size()));
    }
    if (ahead <= config_.backfill_depth && try_start(r))
      queue.erase(queue_links_, r);
    return;
  }
  try_dispatch();
}

bool SchedulerReplay::try_start(std::uint32_t r) {
  JobRec& rec = recs_[r];
  const QueueClass cls = rec.cls;
  if (cls == QueueClass::kEvaluation && eval_gpus_in_use_ + rec.gpus > eval_cap_ &&
      eval_gpus_in_use_ > 0)  // cap, with starvation escape
    return false;

  if (cls == QueueClass::kPretrain) {
    // Pretraining prefers its reservation, spilling to the shared partition
    // only when the reservation is exhausted; in preemptive mode it may
    // evict best-effort work instead.
    if (place(reserved_, r)) {
      rec.on_reserved = true;
    } else if (place(shared_, r)) {
      rec.on_reserved = false;
    } else if (config_.allow_preemption && preempt_for(rec.gpus)) {
      ACME_CHECK_MSG(place(shared_, r), "preemption freed too little");
      rec.on_reserved = false;
    } else {
      return false;
    }
  } else {
    if (!place(shared_, r)) return false;
    rec.on_reserved = false;
  }

  trace::JobRecord& job = jobs_[rec.job];
  if (cls == QueueClass::kEvaluation) eval_gpus_in_use_ += rec.gpus;
  if (!rec.delay_recorded) {  // keep the FIRST start for delay accounting
    job.queue_delay = engine_->now() - replay_start_ - job.submit_time;
    rec.delay_recorded = true;
  }
  rec.started_at = engine_->now();
  if (obs::enabled()) placements_counter().inc();
  ++running_jobs_;
  running_pools_[cls == QueueClass::kPretrain ? kPoolPretrain : kPoolBestEffort]
      .push_back(pool_links_, r);
  const double remaining =
      std::max(0.0, job.duration - rec.progress_done) + rec.extra_overhead;
  rec.extra_overhead = 0.0;  // the tax is paid once per restart
  rec.completion =
      engine_->schedule_after(remaining, [this, r] { on_complete(r); });
  return true;
}

void SchedulerReplay::evict(std::uint32_t r, double rollback_cap,
                            double overhead_seconds, bool failure_kill) {
  JobRec& rec = recs_[r];
  engine_->cancel(rec.completion);
  rec.completion = {};
  stop_running(r);
  const double elapsed = engine_->now() - rec.started_at;
  const double lost = std::min(elapsed, rollback_cap);
  rec.progress_done += elapsed - lost;
  if (result_ != nullptr) {
    if (failure_kill) {
      ++result_->failure_kills;
      result_->failure_lost_gpu_seconds += static_cast<double>(rec.gpus) * lost;
      result_->failure_restart_seconds += overhead_seconds;
    } else {
      ++result_->preemptions;
      result_->wasted_gpu_seconds += static_cast<double>(rec.gpus) * lost;
    }
  }
  rec.extra_overhead += overhead_seconds;
  rec.waiting_since = engine_->now();
  queues_[static_cast<int>(rec.cls)].push_back(queue_links_, r);
  if (obs::enabled()) (failure_kill ? kills_counter() : preemptions_counter()).inc();
}

void SchedulerReplay::kill_job(std::size_t index, double rollback_cap_seconds,
                               double restart_overhead_seconds) {
  const std::uint32_t r = live_record(index);
  ACME_CHECK_MSG(!recs_[r].alloc.empty(), "kill_job on a job not running");
  evict(r, rollback_cap_seconds, restart_overhead_seconds,
        /*failure_kill=*/true);
  // The freed nodes go back into the pool immediately; queued work (including
  // the victim, once its recovery stall is priced in) competes for them.
  try_dispatch();
}

int SchedulerReplay::reserved_node_count() const {
  return reserved_.node_count();
}

int SchedulerReplay::total_node_count() const {
  return reserved_.node_count() + shared_.node_count();
}

void SchedulerReplay::running_jobs_on_nodes(
    int first, int count, std::vector<std::size_t>& out) const {
  out.clear();
  const int last = first + count;
  for (std::size_t pool = 0; pool < 2; ++pool) {
    for (std::uint32_t r = running_pools_[pool].front();
         r != common::kIndexNpos; r = common::IndexList::next_of(pool_links_, r)) {
      const JobRec& rec = recs_[r];
      bool hit = false;
      for_each_node(rec, [&](int node, int) {
        hit = hit || (node >= first && node < last);
      });
      if (hit) out.push_back(rec.job);
    }
  }
}

void SchedulerReplay::cordon_nodes(int first, int count) {
  const int offset = reserved_.node_count();
  const int last = first + count;
  for (int node = std::max(first, 0); node < last; ++node) {
    if (node < offset) {
      reserved_.cordon(node);
    } else if (node - offset < shared_.node_count()) {
      shared_.cordon(node - offset);
    }
  }
}

void SchedulerReplay::uncordon_nodes(int first, int count) {
  const int offset = reserved_.node_count();
  const int last = first + count;
  for (int node = std::max(first, 0); node < last; ++node) {
    if (node < offset) {
      reserved_.uncordon(node);
    } else if (node - offset < shared_.node_count()) {
      shared_.uncordon(node - offset);
    }
  }
  // Repaired capacity is real capacity: let stuck heads retry.
  capacity_freed_ = true;
  try_dispatch();
}

bool SchedulerReplay::preempt_for(int gpus) {
  // Feasibility first: even an empty shared partition must fit the gang.
  if (gpus > shared_.total_gpus()) return false;
  auto& pool = running_pools_[kPoolBestEffort];
  while (!shared_.can_allocate(gpus) && !pool.empty()) {
    // Youngest victim first: least progress discarded. Best-effort jobs have
    // no checkpoints — everything since their start is lost.
    evict(pool.back(), std::numeric_limits<double>::infinity(),
          config_.preemption_overhead_seconds, /*failure_kill=*/false);
  }
  return shared_.can_allocate(gpus);
}

void SchedulerReplay::preempt_pretraining_if_starved() {
  if (!config_.preempt_pretraining_for_fairness) return;
  auto& pretrain = running_pools_[kPoolPretrain];
  for (auto* queue : {&queues_[1], &queues_[2]}) {
    if (queue->empty()) continue;
    const std::uint32_t head = queue->front();
    if (engine_->now() - recs_[head].waiting_since < config_.fairness_wait_seconds)
      continue;
    // Evict the youngest pretraining victims until the starved head fits,
    // then start it immediately — before the evicted (higher-priority)
    // pretraining job can re-claim the freed nodes.
    while (!pretrain.empty() && !shared_.can_allocate(recs_[head].gpus)) {
      evict(pretrain.back(), config_.pretrain_rollback_cap_seconds,
            config_.preemption_overhead_seconds, /*failure_kill=*/false);
    }
    if (try_start(head)) queue->erase(queue_links_, head);
  }
}

void SchedulerReplay::try_dispatch() {
  if (obs::enabled()) {
    queue_depth_histogram().observe(static_cast<double>(
        queues_[0].size() + queues_[1].size() + queues_[2].size()));
  }
  preempt_pretraining_if_starved();
  // The scan below reflects the capacity that exists right now; until
  // something frees capacity again, a new arrival can skip straight to its
  // own try_start (see on_submit). Mid-scan evictions re-set the flag.
  capacity_freed_ = false;
  // Highest class first. FCFS within a class; a stuck head may be backfilled
  // past by smaller jobs (conservative: they must fit in currently free
  // resources, which cannot delay the head further under our no-preemption
  // model). The scan budget is explicit: the head plus backfill_depth
  // candidates past it may fail before the class scan stops.
  for (auto& queue : queues_) {
    std::size_t failures_left = config_.backfill_depth + 1;
    // Within one class scan, a failure at G GPUs dooms every demand >= G:
    // bucket feasibility and gang feasibility are monotone in the demand,
    // the eval cap's in-use total only grows mid-scan, and successful starts
    // only shrink capacity. Caching the smallest failed demand lets the scan
    // skip the try_start call (still charging the backfill budget, exactly
    // as the full attempt would). Pretraining in preemptive mode is exempt:
    // its try_start can evict its way to success.
    const bool prunable = &queue != &queues_[0] || !config_.allow_preemption;
    int min_failed_gpus = std::numeric_limits<int>::max();
    for (std::uint32_t i = queue.front();
         i != common::kIndexNpos && failures_left > 0;) {
      // Once a 1-GPU job has failed, every remaining candidate (demand >= 1)
      // is doomed too, so the rest of the walk would only drain the budget
      // without touching any state — stop it outright.
      if (prunable && min_failed_gpus <= 1) break;
      // Capture the successor first: it survives both the erase below and
      // tail appends from evictions inside try_start (victims re-enter
      // queues at the back; queued entries are never unlinked mid-scan).
      const std::uint32_t nxt = common::IndexList::next_of(queue_links_, i);
      const int gpus = recs_[i].gpus;
      if (prunable && gpus >= min_failed_gpus) {
        --failures_left;
      } else if (try_start(i)) {
        queue.erase(queue_links_, i);
      } else {
        --failures_left;
        if (prunable) min_failed_gpus = gpus;
      }
      i = nxt;
    }
  }
}

namespace {

// Live runtime record flattened for bulk serialization. The completion
// handle travels as a raw u64; the allocation as its first node (-1: not
// running), since its GPU count is the job's and its other nodes are links
// in the partition ledger's section.
struct RecPod {
  std::uint64_t completion;
  double started_at;
  double extra_overhead;
  double progress_done;
  double waiting_since;
  std::uint32_t flags;  // bit0 on_reserved, bit1 delay_recorded
  std::int32_t first_node;
};

}  // namespace

void SchedulerReplay::save(snap::SnapshotWriter& w) const {
  ACME_CHECK_MSG(result_ != nullptr,
                 "SchedulerReplay::save outside an active replay");
  w.begin_section("sched.replay");
  // The trace rides in the snapshot verbatim: JobRecord is a flat POD with
  // no padding (tags are interned u16 ids), so a bulk copy both avoids
  // re-synthesizing a possibly million-row trace on restore and freezes
  // queue_delay, the one trace field the replay mutates.
  static_assert(std::is_trivially_copyable_v<trace::JobRecord>);
  w.reserve(jobs_.size() * (sizeof(trace::JobRecord) + 16) + (1u << 16));
  w.write_pod_vec(jobs_);
  // Only live (queued or running) jobs own a record; pending submissions
  // live in the engine's lane and completed jobs in the trace alone. Records
  // are written in ascending trace index and list orders as trace indices,
  // so the bytes never depend on which pool record a job happened to take.
  std::vector<std::uint32_t> live_idx;
  for (const JobRec& rec : recs_)
    if (rec.job != kNoRecord) live_idx.push_back(rec.job);
  std::sort(live_idx.begin(), live_idx.end());
  std::vector<RecPod> live_pods;
  live_pods.reserve(live_idx.size());
  for (const std::uint32_t i : live_idx) {
    const JobRec& rec = recs_[rec_of_[i]];
    live_pods.push_back(RecPod{rec.completion.raw(),
                               rec.started_at,
                               rec.extra_overhead,
                               rec.progress_done,
                               rec.waiting_since,
                               static_cast<std::uint32_t>(
                                   (rec.on_reserved ? 1u : 0u) |
                                   (rec.delay_recorded ? 2u : 0u)),
                               rec.alloc.first});
  }
  w.write_pod_vec(live_idx);
  w.write_pod_vec(live_pods);
  // Front-to-back member order of each list, as trace indices (FCFS order
  // is replay state: restore must rebuild it exactly).
  const auto write_order = [&](const common::IndexList& list,
                               const common::IndexLinks& links) {
    std::vector<std::uint32_t> order;
    order.reserve(list.size());
    for (std::uint32_t r = list.front(); r != common::kIndexNpos;
         r = common::IndexList::next_of(links, r))
      order.push_back(recs_[r].job);
    w.write_pod_vec(order);
  };
  for (const auto& queue : queues_) write_order(queue, queue_links_);
  for (const auto& pool : running_pools_) write_order(pool, pool_links_);
  w.write_f64(replay_start_);
  w.write_u64(pending_submissions_);
  w.write_bool(capacity_freed_);
  w.write_i64(eval_gpus_in_use_);
  w.write_i64(running_jobs_);
  w.write_u64(sample_event_.raw());
  w.write_f64(sample_interval_);
  w.write_i64(result_->preemptions);
  w.write_f64(result_->wasted_gpu_seconds);
  w.write_i64(result_->failure_kills);
  w.write_f64(result_->failure_lost_gpu_seconds);
  w.write_f64(result_->failure_restart_seconds);
  w.write_u64(result_->unstarted);
  w.write_pod_vec(result_->occupancy);
  w.end_section();
  reserved_.save(w);
  shared_.save(w);
}

void SchedulerReplay::restore_replay(snap::SnapshotReader& r) {
  ACME_CHECK_MSG(result_ == nullptr,
                 "restore_replay into a scheduler with an active replay");
  r.enter_section("sched.replay");
  r.read_pod_vec(jobs_);
  // The same engine bound, record pool and scratch reservation
  // begin_replay establishes, so the restored drain is as
  // allocation-free as a fresh one. Sized before the rebinds below so any
  // engine slot-vector growth happens while the slots are still
  // callback-free (partition GPU totals are fixed at construction, so they
  // are valid before the ledgers' own restore). This also registers the
  // submission lane's handler.
  reset_runtime_state();
  std::vector<std::uint32_t> live_idx;
  std::vector<RecPod> live_pods;
  r.read_pod_vec(live_idx);
  r.read_pod_vec(live_pods);
  ACME_CHECK(live_idx.size() == live_pods.size());
  for (std::size_t k = 0; k < live_idx.size(); ++k) {
    const std::uint32_t i = live_idx[k];
    ACME_CHECK(i < jobs_.size() && rec_of_[i] == kNoRecord);
    const std::uint32_t id = take_record(i);
    JobRec& rec = recs_[id];
    const RecPod& pod = live_pods[k];
    rec.completion = sim::EventHandle::from_raw(pod.completion);
    rec.started_at = pod.started_at;
    rec.extra_overhead = pod.extra_overhead;
    rec.progress_done = pod.progress_done;
    rec.waiting_since = pod.waiting_since;
    rec.on_reserved = (pod.flags & 1u) != 0;
    rec.delay_recorded = (pod.flags & 2u) != 0;
    ACME_CHECK_MSG(pod.first_node >= -1, "snapshot allocation node out of range");
    if (pod.first_node >= 0) rec.alloc = {pod.first_node, rec.gpus};
    if (rec.completion.valid())
      engine_->rebind(rec.completion, [this, id] { on_complete(id); });
  }
  const auto read_list = [&](common::IndexList& list, common::IndexLinks& links) {
    list = common::IndexList{};
    std::vector<std::uint32_t> order;
    r.read_pod_vec(order);
    for (const std::uint32_t i : order) list.push_back(links, live_record(i));
  };
  for (auto& queue : queues_) read_list(queue, queue_links_);
  for (auto& pool : running_pools_) read_list(pool, pool_links_);
  replay_start_ = r.read_f64();
  pending_submissions_ = static_cast<std::size_t>(r.read_u64());
  capacity_freed_ = r.read_bool();
  eval_gpus_in_use_ = static_cast<int>(r.read_i64());
  running_jobs_ = static_cast<int>(r.read_i64());
  sample_event_ = sim::EventHandle::from_raw(r.read_u64());
  sample_interval_ = r.read_f64();
  result_storage_ = ReplayResult{};
  result_ = &result_storage_;
  result_->preemptions = static_cast<int>(r.read_i64());
  result_->wasted_gpu_seconds = r.read_f64();
  result_->failure_kills = static_cast<int>(r.read_i64());
  result_->failure_lost_gpu_seconds = r.read_f64();
  result_->failure_restart_seconds = r.read_f64();
  result_->unstarted = static_cast<std::size_t>(r.read_u64());
  r.read_pod_vec(result_->occupancy);
  r.leave_section();
  reserved_.restore(r);
  shared_.restore(r);
  // release walks each running gang's chain by its GPU count, so every
  // chain must hold exactly its nodes and no node may be in two gangs.
  std::vector<bool> in_gang(static_cast<std::size_t>(total_node_count()));
  for (const JobRec& rec : recs_) {
    if (rec.job == kNoRecord || rec.alloc.empty()) continue;
    ACME_CHECK_MSG((rec.on_reserved ? reserved_ : shared_).chain_matches(rec.alloc),
                   "snapshot allocation does not match its ledger's gang links");
    if (rec.gpus < spec_.node.gpus) continue;  // sub-node jobs share nodes
    for_each_node(rec, [&](int node, int) {
      ACME_CHECK_MSG(!in_gang[static_cast<std::size_t>(node)],
                     "snapshot places two gangs on one node");
      in_gang[static_cast<std::size_t>(node)] = true;
    });
  }
  if (sample_event_.valid())
    engine_->rebind(sample_event_, [this, interval = sample_interval_] {
      sample_occupancy(interval);
    });
}

void SchedulerReplay::on_complete(std::uint32_t r) {
  stop_running(r);
  // The job is done: its record goes back to the free list.
  JobRec& rec = recs_[r];
  rec_of_[rec.job] = kNoRecord;
  rec.job = kNoRecord;
  free_recs_.push_back(r);
  try_dispatch();
}

}  // namespace acme::sched
