#include "world/world.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "common/digest.h"
#include "common/units.h"
#include "obs/obs.h"
#include "parallel/model_math.h"
#include "snap/format.h"
#include "trace/analysis.h"

namespace acme::world {

namespace {

// Sharded-state size of the victim's model, keyed off the synthesizer's
// model tags; unknown tags fall back to the 7B sizing.
double params_for_tag(trace::ModelTagId tag_id) {
  switch (tag_id) {
    case trace::kModelTag123B:
      return parallel::llm_123b().params();
    case trace::kModelTag104B:
      return parallel::llm_104b().params();
    default:
      return parallel::llm_7b().params();
  }
}

void observe_failure(double stall_seconds, double lost_gpu_seconds) {
  static obs::Counter& failures = obs::metrics().counter(
      "acme_world_failures_total", "Failures injected into the world replay");
  static obs::Histogram& stalls = obs::metrics().histogram(
      "acme_world_recovery_stall_seconds",
      "Per-failure recovery stall charged to the victim",
      obs::Histogram::exponential_buckets(16.0, 2.0, 12));
  static obs::Histogram& lost = obs::metrics().histogram(
      "acme_world_lost_work_gpu_seconds",
      "Per-failure GPU-seconds rolled back to the last checkpoint",
      obs::Histogram::exponential_buckets(1024.0, 4.0, 12));
  failures.inc();
  stalls.observe(stall_seconds);
  lost.observe(lost_gpu_seconds);
}

}  // namespace

telemetry::FleetSamplerConfig fleet_sampler_config(
    const cluster::ClusterSpec& hardware, const WorldReport& report) {
  telemetry::FleetSamplerConfig config;
  config.spec = hardware;
  config.busy_fraction = report.busy_fraction;
  for (const auto& [type, share] : trace::type_shares(report.replay.jobs))
    if (share.gpu_time_fraction > 0)
      config.gputime_mix[type] = share.gpu_time_fraction;
  return config;
}

serve::ServeConfig serve_config(const ScenarioSpec& spec) {
  ACME_CHECK_MSG(spec.serving(), "scenario configures no serving fleet");
  serve::ServeConfig cfg;
  cfg.replicas = spec.serve_replicas;
  cfg.fabric = spec.kalos() ? comm::kalos_fabric() : comm::seren_fabric();
  cfg.traffic.mean_rps = spec.serve_rps;
  cfg.horizon_seconds = spec.serve_duration_seconds;
  return cfg;
}

std::uint64_t WorldReport::digest() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "makespan=" << replay.makespan << ";unstarted=" << replay.unstarted
     << ";preempt=" << replay.preemptions << ";wasted=" << replay.wasted_gpu_seconds
     << ";fkills=" << replay.failure_kills
     << ";flost=" << replay.failure_lost_gpu_seconds
     << ";frestart=" << replay.failure_restart_seconds
     << ";busy=" << busy_fraction << ";days=" << makespan_days
     << ";finj=" << failures_injected << ";fnov=" << failures_no_victim
     << ";loc=" << localizations << ";manual=" << manual_recoveries
     << ";rstall=" << recovery_stall_seconds << ";lost=" << lost_work_gpu_seconds
     << ";stallgpu=" << stall_gpu_seconds << ";infra=" << infra_failures
     << ";infralost=" << infra_lost_gpu_seconds << ";goodput=" << goodput
     << ";pqd_n=" << pretrain_queue_delay.count()
     << ";pqd_sum=" << (pretrain_queue_delay.empty() ? 0.0 : pretrain_queue_delay.sum())
     << ";eqd_n=" << eval_queue_delay.count()
     << ";eqd_sum=" << (eval_queue_delay.empty() ? 0.0 : eval_queue_delay.sum());
  if (served) os << ";serve=" << serve.digest();
  if (domain_enabled)
    os << ";dom_inj=" << domain_failures_injected
       << ";dom_nov=" << domain_failures_no_victim
       << ";dom_kill=" << domain_jobs_killed
       << ";dom_cordon=" << domain_nodes_cordoned
       << ";dom_outage=" << domain_outage_seconds;
  // Fleet telemetry: count and sum of each monitor in a fixed order, O(n)
  // with no sort, so a nondeterministic noise path flips the digest.
  for (const common::SampleStats* monitor : fleet.monitors())
    os << ";fleet=" << monitor->count() << ',' << monitor->sum();
  common::Fnv1a h;
  h.update(os.str());
  // Binary folds over the full timelines: any divergence in a single sample
  // or delay flips the digest even when the aggregate folds above collide.
  if (!replay.occupancy.empty())
    h.update(std::string_view(
        reinterpret_cast<const char*>(replay.occupancy.data()),
        replay.occupancy.size() * sizeof(replay.occupancy[0])));
  for (const auto& job : replay.jobs)
    h.update(std::string_view(reinterpret_cast<const char*>(&job.queue_delay),
                              sizeof(job.queue_delay)));
  return h.digest();
}

World::World(ScenarioSpec spec)
    : spec_(std::move(spec)), inputs_(cluster_inputs(spec_)) {}

void World::construct_subsystems(trace::Trace& pretrain_jobs, bool synthesize) {
  // Serving stands up first so the carve-out below sees its GPU demand; in a
  // co-located world the fleet takes whole nodes away from the scheduler.
  sched_spec_ = inputs_.spec;
  if (spec_.serving()) {
    const serve::ServeConfig scfg = serve_config(spec_);
    if (spec_.pretrain) {
      const int gpn = std::max(1, inputs_.spec.node.gpus);
      const int carved_nodes = (scfg.total_gpus() + gpn - 1) / gpn;
      ACME_CHECK_MSG(carved_nodes < sched_spec_.node_count,
                     "serving fleet does not fit in the cluster");
      sched_spec_.node_count -= carved_nodes;
    }
    fleet_.emplace(engine_, scfg, spec_.seed);
  }

  if (spec_.pretrain) {
    if (synthesize) pretrain_jobs = synthesize_trace(spec_);
    sched_.emplace(engine_, sched_spec_, inputs_.sched_config);
  }

  // Failure machinery: reason/TTF/TTR sampling off the Table 3 fits, stalls
  // priced by the collective model and the checkpoint timing model.
  failure_rng_ = common::Rng(spec_.seed).fork("world-failures");
  fabric_.emplace(inputs_.fabric);
  gpus_per_node_ = std::max(1, inputs_.spec.node.gpus);

  // Correlated domain outages: a second, independent chain over the
  // scheduler's post-carve-out fleet. Only a non-trivial topology can host a
  // correlated outage (a flat cluster has no subtree smaller than "all"), so
  // flat presets deterministically never arm it.
  domain_tree_ = cluster::DomainTree(sched_spec_.node_count,
                                     sched_spec_.topology);
  domain_rng_ = common::Rng(spec_.seed).fork("world-domain-failures");
  domain_enabled_ = spec_.domain_failures && spec_.pretrain &&
                    sched_.has_value() && !domain_tree_.trivial();
  report_.domain_enabled = domain_enabled_;
  // One slot per GPU bounds the resident-job scan (every running job holds
  // at least one GPU), so fire_domain_failure never allocates mid-drain.
  if (domain_enabled_)
    domain_scratch_.reserve(
        static_cast<std::size_t>(sched_spec_.total_gpus()));

  // Faults split between serving and pretraining by static GPU share; a
  // serve-only world sends every fault at the fleet.
  const int serve_gpus = fleet_ ? fleet_->config().total_gpus() : 0;
  const int sched_gpus = sched_ ? sched_spec_.total_gpus() : 0;
  serve_share_ = serve_gpus + sched_gpus > 0
                     ? static_cast<double>(serve_gpus) / (serve_gpus + sched_gpus)
                     : 0.0;
}

void World::prepare() {
  if (prepared_) return;
  prepared_ = true;
  trace::Trace jobs;
  construct_subsystems(jobs, /*synthesize=*/true);
  // Event construction order is the determinism contract: scheduler
  // submissions + occupancy sampler, then the serve arrival chain, then the
  // failure chain.
  if (sched_) sched_->begin_replay(std::move(jobs), spec_.sample_interval_seconds);
  if (fleet_) fleet_->start();
  if (spec_.inject_failures) arm_next_failure();
  if (domain_enabled_) arm_next_domain_failure();
}

// The failure chain: one self-re-arming engine event. Each firing kills a
// running pretraining job or a serving replica, prices its recovery, and
// schedules the next failure after a freshly sampled TTF. The chain stops
// when the scheduler drained (or, serve-only, past the arrival horizon) — by
// then the engine holds no other events, so the replay terminates.
void World::arm_next_failure() {
  if (sched_ && sched_->drained()) return;
  const failure::FailureEvent next =
      injector_.sample_pretrain_failure(failure_rng_);
  const double delay = next.ttf_seconds * spec_.failure_interval_scale;
  if (!sched_ && engine_.now() + delay > spec_.serve_duration_seconds) return;
  failure_event_ = engine_.schedule_after(delay, [this] { fire_failure(); });
}

void World::fire_failure() {
  failure_event_ = {};
  if (fleet_ && (!sched_ || failure_rng_.uniform() < serve_share_)) {
    const int victim = static_cast<int>(failure_rng_.uniform_int(
        0, static_cast<std::int64_t>(fleet_->replicas()) - 1));
    const failure::FailureEvent event =
        injector_.sample_pretrain_failure(failure_rng_);
    if (!fleet_->replica_up(victim)) {
      // The fault landed on a replica already down for re-warm.
      ++report_.failures_no_victim;
      arm_next_failure();
      return;
    }
    // Re-warm is the §6.1 restart at replica scale, with the weight reload
    // priced like a checkpoint read of the inference state.
    const serve::ServeConfig& scfg = fleet_->config();
    const double rewarm =
        restart_stall(scfg.hw.gpus, scfg.model.params(),
                      fault_localize_nodes(event, scfg.hw.gpus),
                      event.ttr_seconds)
            .seconds;
    fleet_->kill_replica(victim, rewarm);
    ++report_.failures_injected;
    report_.recovery_stall_seconds += rewarm;
    report_.stall_gpu_seconds += rewarm * scfg.hw.gpus;
    if (obs::enabled()) observe_failure(rewarm, 0.0);
    arm_next_failure();
    return;
  }
  const auto& running = sched_->running_pretrain_jobs();
  if (running.empty()) {
    // The fault hit a node no pretraining job occupied; nothing to kill.
    ++report_.failures_no_victim;
    arm_next_failure();
    return;
  }
  const failure::FailureEvent event =
      injector_.sample_pretrain_failure(failure_rng_);
  const std::size_t victim = running[static_cast<std::size_t>(
      failure_rng_.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))];
  kill_pretrain_job(
      victim, fault_localize_nodes(event, sched_->active_job(victim).gpus),
      event.ttr_seconds,
      event.spec != nullptr &&
          event.spec->category == failure::FailureCategory::kInfrastructure);
  ++report_.failures_injected;
  arm_next_failure();
}

World::RestartStall World::restart_stall(int gpus, double params,
                                         int localize_nodes,
                                         double manual_ttr) {
  RestartStall stall;
  stall.reload = ckpt_timing_.async_persist_seconds(params, std::max(gpus, 1));
  stall.seconds = stall.reload;
  if (spec_.auto_recovery) {
    stall.seconds += 45.0;  // log collection + diagnosis-agent latency
    if (localize_nodes > 0) {
      stall.seconds += 2 * fabric_->probe_round_seconds(localize_nodes);
      ++report_.localizations;
    }
    stall.seconds += fabric_->bringup_seconds(comm::World{gpus, 0, 1});
  } else {
    stall.seconds += manual_ttr;
    ++report_.manual_recoveries;
  }
  return stall;
}

int World::fault_localize_nodes(const failure::FailureEvent& event,
                                int gpus) const {
  if (event.spec == nullptr || !event.spec->needs_node_detection) return 0;
  return std::max(1, gpus / gpus_per_node_);
}

void World::kill_pretrain_job(std::size_t victim, int localize_nodes,
                              double manual_ttr, bool infra) {
  const trace::JobRecord& job = sched_->active_job(victim);
  const int gpus = job.gpus;
  const RestartStall stall = restart_stall(
      gpus, params_for_tag(job.model_tag_id), localize_nodes, manual_ttr);

  // Rollback window: the checkpoint interval, extended by the async persist
  // lag (the newest snapshot may not be durable yet).
  double rollback_cap = spec_.ckpt_interval_seconds;
  if (spec_.async_ckpt) rollback_cap += stall.reload;

  const double lost_before = sched_->partial_result().failure_lost_gpu_seconds;
  sched_->kill_job(victim, rollback_cap, stall.seconds);
  const double lost_now =
      sched_->partial_result().failure_lost_gpu_seconds - lost_before;

  report_.recovery_stall_seconds += stall.seconds;
  report_.stall_gpu_seconds += stall.seconds * gpus;
  if (infra) {
    ++report_.infra_failures;
    report_.infra_lost_gpu_seconds += lost_now + stall.seconds * gpus;
  }
  if (obs::enabled()) observe_failure(stall.seconds, lost_now);
}

// The domain-outage chain (Table 2 correlated infrastructure events): sample
// a reason (switch / PDU / cooling) and its TTF up front, fire the outage,
// hold the subtree cordoned for a sampled TTR, then re-arm. One event handle
// serves both phases; domain_down_ says which phase is pending.
void World::arm_next_domain_failure() {
  if (sched_->drained()) return;
  const failure::DomainFailureSpec& row =
      injector_.sample_domain_failure(domain_rng_);
  domain_reason_ = static_cast<std::uint32_t>(
      &row - failure::domain_failure_table().data());
  const double delay = injector_.sample_domain_ttf(row, domain_rng_) *
                       spec_.domain_failure_interval_scale;
  domain_event_ = engine_.schedule_after(delay, [this] { fire_domain_failure(); });
}

void World::fire_domain_failure() {
  domain_event_ = {};
  if (sched_->drained()) return;  // the chain ends with the replay
  const failure::DomainFailureSpec& row =
      failure::domain_failure_table()[domain_reason_];
  const std::vector<cluster::DomainId>& candidates =
      domain_tree_.domains(row.scope);
  const cluster::DomainId victim = candidates[static_cast<std::size_t>(
      domain_rng_.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  const int first = static_cast<int>(domain_tree_.first_node(victim));
  const int count = domain_tree_.domain_nodes(victim);
  const double ttr = injector_.sample_domain_ttr(row, domain_rng_);

  // Cordon the whole subtree first so nothing killed below can re-land on a
  // dead node, then kill every resident job in this one injection.
  sched_->cordon_nodes(first, count);
  sched_->running_jobs_on_nodes(first, count, domain_scratch_);
  // Domain outages are hardware by definition: localization probes the
  // whole cordoned subtree, so TTR grows with the blast radius.
  for (const std::size_t resident : domain_scratch_)
    kill_pretrain_job(resident, count, ttr, /*infra=*/true);

  ++report_.domain_failures_injected;
  if (domain_scratch_.empty()) ++report_.domain_failures_no_victim;
  report_.domain_jobs_killed += static_cast<int>(domain_scratch_.size());
  report_.domain_nodes_cordoned += count;
  report_.domain_outage_seconds += ttr;
  domain_down_ = victim;
  domain_event_ = engine_.schedule_after(ttr, [this] { repair_domain(); });
}

void World::repair_domain() {
  domain_event_ = {};
  const int first = static_cast<int>(domain_tree_.first_node(domain_down_));
  const int count = domain_tree_.domain_nodes(domain_down_);
  domain_down_ = cluster::kInvalidDomain;
  sched_->uncordon_nodes(first, count);
  arm_next_domain_failure();
}

std::size_t World::run_until(double t) {
  prepare();
  // Pump step() directly instead of engine_.run_until(t): the engine's own
  // run_until advances the clock to the horizon, which would poison the
  // makespan of a later finish(); here the clock stays at the last fired
  // event, exactly as in an uninterrupted run.
  std::size_t n = 0;
  while (engine_.step(t)) ++n;
  return n;
}

WorldReport World::finish() {
  ACME_CHECK_MSG(prepared_, "World::finish before prepare/run");
  ACME_CHECK_MSG(!finished_, "World::finish called twice");
  finished_ = true;
  if (fleet_) {
    report_.served = true;
    report_.serve = fleet_->report();
  }
  if (!sched_) return std::move(report_);  // serve-only: no replay to aggregate
  report_.replay = sched_->finish_replay();

  // Aggregate accounting.
  report_.lost_work_gpu_seconds = report_.replay.failure_lost_gpu_seconds;
  report_.makespan_days = report_.replay.makespan / common::kDay;
  double busy = 0, total = 0;
  for (const auto& s : report_.replay.occupancy) {
    busy += s.busy_gpus;
    total += s.total_gpus;
  }
  report_.busy_fraction = total > 0 ? busy / total : 0;
  report_.pretrain_queue_delay =
      trace::queue_delays_of(report_.replay.jobs, trace::WorkloadType::kPretrain);
  report_.eval_queue_delay =
      trace::queue_delays_of(report_.replay.jobs, trace::WorkloadType::kEvaluation);

  double useful_gpu_seconds = 0;
  for (const auto& job : report_.replay.jobs) useful_gpu_seconds += job.gpu_time();
  const double charged = useful_gpu_seconds + report_.lost_work_gpu_seconds +
                         report_.stall_gpu_seconds;
  report_.goodput = charged > 0 ? useful_gpu_seconds / charged : 1.0;

  // Fleet telemetry sampled from what the shared engine actually ran.
  if (spec_.fleet_samples > 0) {
    telemetry::FleetSampler sampler(
        fleet_sampler_config(inputs_.spec, report_));
    common::Rng fleet_rng = common::Rng(spec_.seed).fork("world-fleet");
    report_.fleet = sampler.sample(spec_.fleet_samples, fleet_rng);
  }
  return std::move(report_);
}

WorldReport World::run() {
  ACME_OBS_SPAN_ARG("world", "run", "scenario", spec_.name);
  prepare();
  engine_.run();
  return finish();
}

void World::save(snap::SnapshotWriter& w) const {
  ACME_CHECK_MSG(prepared_ && !finished_,
                 "World::save is valid only between prepare() and finish()");
  w.begin_section("world.spec");
  w.write_string(spec_.to_json());
  w.end_section();
  w.begin_section("world.run");
  snap::write_rng_state(w, failure_rng_.state());
  w.write_u64(failure_event_.raw());
  w.write_i64(report_.failures_injected);
  w.write_i64(report_.failures_no_victim);
  w.write_i64(report_.localizations);
  w.write_i64(report_.manual_recoveries);
  w.write_f64(report_.recovery_stall_seconds);
  w.write_f64(report_.stall_gpu_seconds);
  w.write_i64(report_.infra_failures);
  w.write_f64(report_.infra_lost_gpu_seconds);
  w.end_section();
  // The domain chain's state travels only when the chain exists; flat
  // scenarios keep the exact pre-hierarchy snapshot layout.
  if (domain_enabled_) {
    w.begin_section("world.domain");
    snap::write_rng_state(w, domain_rng_.state());
    w.write_u64(domain_event_.raw());
    w.write_u64(domain_down_);
    w.write_u64(domain_reason_);
    w.write_i64(report_.domain_failures_injected);
    w.write_i64(report_.domain_failures_no_victim);
    w.write_i64(report_.domain_jobs_killed);
    w.write_i64(report_.domain_nodes_cordoned);
    w.write_f64(report_.domain_outage_seconds);
    w.end_section();
  }
  engine_.save(w);
  if (sched_) sched_->save(w);
  if (fleet_) fleet_->save(w);
}

void World::save_file(const std::string& path) const {
  snap::SnapshotWriter w;
  save(w);
  w.write_file(path);
}

void World::restore(snap::SnapshotReader& r) {
  ACME_CHECK_MSG(!prepared_,
                 "World::restore requires a freshly constructed world");
  prepared_ = true;
  r.enter_section("world.spec");
  const std::string saved_spec = r.read_string();
  r.leave_section();
  ACME_CHECK_MSG(saved_spec == spec_.to_json(),
                 "snapshot was taken from a different scenario than this "
                 "world's spec (use snapshot_spec() to recover the right one)");
  r.enter_section("world.run");
  const common::RngState rng = snap::read_rng_state(r);
  const std::uint64_t failure_raw = r.read_u64();
  report_.failures_injected = static_cast<int>(r.read_i64());
  report_.failures_no_victim = static_cast<int>(r.read_i64());
  report_.localizations = static_cast<int>(r.read_i64());
  report_.manual_recoveries = static_cast<int>(r.read_i64());
  report_.recovery_stall_seconds = r.read_f64();
  report_.stall_gpu_seconds = r.read_f64();
  report_.infra_failures = static_cast<int>(r.read_i64());
  report_.infra_lost_gpu_seconds = r.read_f64();
  r.leave_section();
  // Stand the subsystems up in the canonical order, arming nothing: the
  // restored engine spine already holds every pending event, the snapshot
  // carries the trace (no re-synthesis), and each subsystem rebinds its own
  // callbacks.
  trace::Trace jobs;
  construct_subsystems(jobs, /*synthesize=*/false);
  failure_rng_.set_state(rng);
  std::uint64_t domain_raw = 0;
  if (domain_enabled_) {
    r.enter_section("world.domain");
    domain_rng_.set_state(snap::read_rng_state(r));
    domain_raw = r.read_u64();
    domain_down_ = static_cast<cluster::DomainId>(r.read_u64());
    domain_reason_ = static_cast<std::uint32_t>(r.read_u64());
    report_.domain_failures_injected = static_cast<int>(r.read_i64());
    report_.domain_failures_no_victim = static_cast<int>(r.read_i64());
    report_.domain_jobs_killed = static_cast<int>(r.read_i64());
    report_.domain_nodes_cordoned = static_cast<int>(r.read_i64());
    report_.domain_outage_seconds = r.read_f64();
    r.leave_section();
  }
  engine_.restore(r);
  if (sched_) sched_->restore_replay(r);
  if (fleet_) fleet_->restore(r);
  failure_event_ = sim::EventHandle::from_raw(failure_raw);
  if (failure_event_.valid())
    engine_.rebind(failure_event_, [this] { fire_failure(); });
  domain_event_ = sim::EventHandle::from_raw(domain_raw);
  if (domain_event_.valid()) {
    // Phase disambiguates the callback: a down domain's pending event is its
    // repair, otherwise it is the next outage.
    if (domain_down_ != cluster::kInvalidDomain)
      engine_.rebind(domain_event_, [this] { repair_domain(); });
    else
      engine_.rebind(domain_event_, [this] { fire_domain_failure(); });
  }
  ACME_CHECK_MSG(engine_.unbound() == 0,
                 "restored engine holds events no subsystem rebound — "
                 "snapshot and world composition disagree");
}

void World::restore_file(const std::string& path) {
  snap::SnapshotReader r = snap::SnapshotReader::from_file(path);
  restore(r);
}

void World::branch_future(std::string_view label) {
  ACME_CHECK_MSG(prepared_ && !finished_,
                 "branch_future is valid only between prepare()/restore() "
                 "and finish()");
  failure_rng_ = failure_rng_.fork(label);
  domain_rng_ = domain_rng_.fork(label);
}

ScenarioSpec snapshot_spec(const std::string& path) {
  snap::SnapshotReader r = snap::SnapshotReader::from_file(path);
  r.enter_section("world.spec");
  const std::string json = r.read_string();
  r.leave_section();
  std::string error;
  std::optional<ScenarioSpec> spec = scenario_from_json(json, &error);
  ACME_CHECK_MSG(spec.has_value(),
                 "snapshot embeds an unparseable scenario spec: " + error);
  return *spec;
}

WorldReport run_world(const ScenarioSpec& spec) { return World(spec).run(); }

mc::ReplicaRun<WorldReport> run_world_mc(const ScenarioSpec& spec,
                                         const mc::ReplicationOptions& options) {
  return mc::run_replicas<WorldReport>(
      options, [&spec](common::Rng& rng, std::size_t) {
        // Each replica re-seeds the whole scenario (trace synthesis, failure
        // arrivals, fleet sampling) from its own forked stream.
        ScenarioSpec replica_spec = spec;
        replica_spec.seed = rng.next();
        return World(std::move(replica_spec)).run();
      });
}

}  // namespace acme::world
