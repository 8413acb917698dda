// The integrated world: one discrete-event spine for the whole datacenter.
//
// World composes what the single-subsystem entry points exercise in
// isolation — cluster spec + synthesized six-month trace + quota scheduler +
// live failure injection (paper Table 3) + recovery pricing (§6.1: diagnose,
// two-round localize, NCCL bring-up, checkpoint reload) + fleet telemetry +
// an optional inference serving fleet (src/serve) — on ONE shared
// sim::Engine. A scenario picks the mix: pretrain-only (the default),
// serve-only (pretrain=false), or co-located, where the serving replicas
// carve nodes out of the scheduler's cluster and Table 3 failures land on
// either side in proportion to its GPU share. Failures fire as engine events against whatever
// pretraining job is actually running at that instant; the victim loses up
// to a checkpoint interval of progress, pays the recovery stall, and
// re-enters the scheduler queues, where its resubmission contends with (and
// delays) queued evaluation batches. That failure -> recovery -> queue
// interaction is the paper's §5/§6.1 story and is invisible to any
// single-silo replay.
//
// Determinism contract: a World run is a pure function of its ScenarioSpec.
// All randomness forks off Rng(spec.seed) with fixed labels ("world-failures",
// "world-fleet"; trace synthesis uses spec.seed directly), and the engine
// fires same-timestamp events in insertion order, with insertions ordered by
// the fixed composition sequence (scheduler submissions + occupancy sampler
// at begin_replay, then the failure chain). Repeated runs — and runs inside
// run_world_mc at any thread count — produce byte-identical reports and obs
// snapshots (see DESIGN.md §9).
#pragma once

#include <optional>
#include <string>

#include "ckpt/timing.h"
#include "cluster/domain.h"
#include "comm/collective.h"
#include "common/rng.h"
#include "common/stats.h"
#include "failure/injector.h"
#include "mc/replication.h"
#include "sched/scheduler.h"
#include "serve/fleet.h"
#include "sim/engine.h"
#include "telemetry/fleet_sampler.h"
#include "world/scenario.h"

namespace acme::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace acme::snap

namespace acme::world {

struct WorldReport {
  sched::ReplayResult replay;
  double busy_fraction = 0;  // time-averaged GPU occupancy
  double makespan_days = 0;

  // Failure/recovery accounting.
  int failures_injected = 0;     // failure events that killed a running job
  int failures_no_victim = 0;    // fired while no pretraining was running
  int localizations = 0;         // two-round localizations (hardware faults)
  int manual_recoveries = 0;     // on-call TTR path (auto_recovery off)
  double recovery_stall_seconds = 0;  // total restart stall charged
  double lost_work_gpu_seconds = 0;   // progress rolled back (ckpt-bounded)
  double stall_gpu_seconds = 0;       // victim GPUs idled by recovery stalls
  // Infrastructure slice of the injected failures (paper §5.2: 11% of
  // failures, 82% of failure GPU time).
  int infra_failures = 0;
  double infra_lost_gpu_seconds = 0;

  // Queue delays per class, the observable end of the failure -> recovery ->
  // queue interaction (a killed pretraining job's resubmission delays queued
  // evaluation trials).
  common::SampleStats pretrain_queue_delay;
  common::SampleStats eval_queue_delay;

  // Goodput: useful GPU-seconds over useful + lost + recovery-stalled, the
  // §6.1 framing ("wasted time caused by failures" vs delivered training).
  double goodput = 1.0;

  telemetry::FleetMetrics fleet;  // sampled from the replay occupancy

  // Inference serving (spec.serve_replicas > 0): the fleet's own counters and
  // latency quantiles. `served` distinguishes "no serving configured" from a
  // fleet that saw zero traffic.
  bool served = false;
  serve::FleetReport serve;

  // Correlated domain outages (spec.domain_failures over a non-trivial
  // topology): switch/PDU/cooling events that cordon a whole subtree and
  // kill every resident job in one injection. `domain_enabled` distinguishes
  // "no domain chain armed" from a run that saw zero outages.
  bool domain_enabled = false;
  int domain_failures_injected = 0;  // domain events that fired
  int domain_failures_no_victim = 0;  // subtree held no running job
  int domain_jobs_killed = 0;         // residents killed across all events
  int domain_nodes_cordoned = 0;      // blast radius, summed over events
  double domain_outage_seconds = 0;   // cordon duration, summed over events

  // FNV-1a over every counter, a fixed-precision rendering of every derived
  // value, the full occupancy timeline and every job's queue delay: two
  // reports digest equal iff the runs were observably identical. This is the
  // snapshot determinism oracle (save -> restore -> run-to-end must digest
  // equal to the uninterrupted run).
  std::uint64_t digest() const;
};

// The fleet-telemetry sampler a finished replay calibrates: `hardware`'s
// node model, occupancy from the report's busy fraction, workload mix from
// the replayed jobs' GPU-time shares. World::finish and every bench that
// samples fleet telemetry from a replay share this one definition.
telemetry::FleetSamplerConfig fleet_sampler_config(
    const cluster::ClusterSpec& hardware, const WorldReport& report);

// The serve::ServeConfig a scenario resolves to — the single mapping the
// world driver, the serve benches and the tests all share. Requires
// spec.serving().
serve::ServeConfig serve_config(const ScenarioSpec& spec);

class World {
 public:
  explicit World(ScenarioSpec spec);

  // Runs the scenario start-to-drain on the world's engine. Equivalent to
  // prepare() + engine().run() + finish().
  WorldReport run();

  // --- Incremental protocol (snapshot / fast-forward surface) ---
  //
  // prepare() stands the subsystems up and arms their initial events
  // (idempotent); run_until(t) pumps every event with timestamp <= t, leaving
  // the clock at the LAST FIRED event (not t) so a later finish() computes
  // the same makespan as an uninterrupted run; finish() aggregates the
  // report once the engine drained. A quiescent point is anywhere between
  // run_until calls.
  void prepare();
  std::size_t run_until(double t);
  bool done() const { return prepared_ && engine_.pending() == 0; }
  WorldReport finish();

  // --- Snapshot support (acme::snap, DESIGN.md §12) ---
  //
  // save() serializes the full world state — spec, failure chain, engine
  // spine, scheduler replay, serve fleet — at any quiescent point between
  // prepare() and finish(). restore() rebuilds that state into a World
  // freshly constructed from the SAME spec (checked against the embedded
  // spec JSON; use snapshot_spec() to recover it from a file first) and
  // rebinds every pending event callback; resuming produces byte-identical
  // reports to the uninterrupted run.
  void save(snap::SnapshotWriter& w) const;
  void save_file(const std::string& path) const;
  void restore(snap::SnapshotReader& r);
  void restore_file(const std::string& path);

  // Branch point for what-if exploration: re-forks the failure stream so
  // this (typically just-restored) world's future failures diverge from the
  // parent run while the past stays shared. Distinct labels give distinct
  // futures; the same label replays the parent's.
  void branch_future(std::string_view label);

  const ScenarioSpec& spec() const { return spec_; }
  sim::Engine& engine() { return engine_; }

 private:
  // Builds fleet_/sched_ and the failure machinery in the canonical order
  // WITHOUT scheduling any events; fills `pretrain_jobs` with the
  // synthesized trace when the scenario pretrains (prepare moves it into
  // begin_replay; restore hands it to restore_replay for digest checking).
  // Stands the subsystems up in the canonical order. When `synthesize` is
  // true the pretraining trace is generated from the spec into
  // `pretrain_jobs` (the prepare() path); restore() passes false because the
  // snapshot carries the trace and hands it straight to the scheduler.
  void construct_subsystems(trace::Trace& pretrain_jobs, bool synthesize);
  void arm_next_failure();
  void fire_failure();
  void arm_next_domain_failure();
  void fire_domain_failure();
  void repair_domain();

  // The §6.1 restart every fault pays, whatever its scope: checkpoint (or
  // weight) reload of `params` sharded over `gpus`, then either diagnosis,
  // two-round localization over `localize_nodes` nodes (0 = no hardware
  // probe) and NCCL bring-up at `gpus`, or the on-call `manual_ttr` when
  // recovery is manual. Counts localizations and manual recoveries.
  struct RestartStall {
    double seconds = 0;  // total stall, reload included
    double reload = 0;   // checkpoint reload alone
  };
  RestartStall restart_stall(int gpus, double params, int localize_nodes,
                             double manual_ttr);
  // Nodes a job-scoped fault localizes over: the victim's own nodes for a
  // hardware fault, none otherwise.
  int fault_localize_nodes(const failure::FailureEvent& event, int gpus) const;
  // Kills running pretraining job `victim`: prices its restart, rolls it back
  // at most a checkpoint interval (plus the async persist lag), and charges
  // the stall, the lost work and, for an infrastructure fault, the infra
  // slice. The caller counts the fault itself.
  void kill_pretrain_job(std::size_t victim, int localize_nodes,
                         double manual_ttr, bool infra);

  ScenarioSpec spec_;
  ClusterInputs inputs_;
  sim::Engine engine_;

  // Run state, live between prepare() and finish(). Subsystems hold
  // references into engine_, so a World is pinned in place once prepared.
  bool prepared_ = false;
  bool finished_ = false;
  cluster::ClusterSpec sched_spec_;
  std::optional<serve::ServeFleet> fleet_;
  std::optional<sched::SchedulerReplay> sched_;
  // Samplers only: its own seed goes unused, every draw comes from
  // failure_rng_ or domain_rng_.
  failure::FailureInjector injector_;
  std::optional<comm::CollectiveModel> fabric_;
  ckpt::CheckpointTimingModel ckpt_timing_;
  common::Rng failure_rng_;
  int gpus_per_node_ = 1;
  double serve_share_ = 0.0;
  // Pending failure-chain event; cleared at fire so valid() <=> pending.
  sim::EventHandle failure_event_;
  // Correlated domain-outage chain (armed only when domain_enabled_). One
  // handle covers both phases: domain_down_ == kInvalidDomain means the
  // pending event is the next outage, a valid id means it is the repair of
  // that domain.
  bool domain_enabled_ = false;
  cluster::DomainTree domain_tree_;
  common::Rng domain_rng_;
  sim::EventHandle domain_event_;
  cluster::DomainId domain_down_ = cluster::kInvalidDomain;
  std::uint32_t domain_reason_ = 0;  // row index into domain_failure_table()
  std::vector<std::size_t> domain_scratch_;  // resident-job scan, preallocated
  WorldReport report_;
};

// Reads back the ScenarioSpec embedded in a world snapshot file, so a tool
// holding only the file can construct the matching World and restore into it.
ScenarioSpec snapshot_spec(const std::string& path);

// One-call convenience.
WorldReport run_world(const ScenarioSpec& spec);

// Monte Carlo replication: replica i re-seeds the scenario from its forked
// Rng stream and runs a private World; bit-identical per replica regardless
// of thread count.
mc::ReplicaRun<WorldReport> run_world_mc(const ScenarioSpec& spec,
                                         const mc::ReplicationOptions& options);

}  // namespace acme::world
