// Cluster scheduler replay (paper §2.2 "resource isolation and quota
// reservation ... best-effort job mechanism", §3.2 queuing-delay findings).
//
// Policy modelled after Acme's:
//  - a node partition is reserved for pretraining (quota reservation): only
//    pretraining jobs may place there, so campaign resubmissions restart
//    without queuing behind best-effort work;
//  - all other workloads are best-effort on the shared partition;
//  - evaluation trials additionally sit in the lowest-priority queue under a
//    thin aggregate GPU cap — they arrive in large simultaneous batches and
//    drain through limited spare resources, which is exactly why the paper
//    finds they wait longest despite being the smallest jobs (Fig 6).
//
// Replaying a synthesized trace through this scheduler fills in each job's
// queue_delay and produces a cluster occupancy timeline for Fig 7.
//
// The replay runs on an injected sim::Engine so it can share the event spine
// with failure injection, recovery and evaluation (acme::world). The legacy
// constructor keeps a private engine for single-silo callers. Integrated
// drivers use begin_replay()/finish_replay() and pump the engine themselves;
// replay() remains the one-call path.
#pragma once

#include <memory>
#include <vector>

#include "cluster/state.h"
#include "common/index_list.h"
#include "sim/engine.h"
#include "trace/job.h"

namespace acme::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace acme::snap

namespace acme::sched {

struct SchedulerConfig {
  // Fraction of cluster NODES reserved for pretraining. May be 0 when
  // preemption is enabled (the classic DL-scheduler design the paper argues
  // against for LLM workloads).
  double pretrain_reservation = 0.80;
  // Preemptive baseline (Tiresias/Gandiva-style): pretraining jobs evict
  // running best-effort jobs instead of relying on a reservation. Victims
  // lose all progress and re-run from scratch after `preemption_overhead`
  // (checkpoint save/restore + resubmission) — the "considerable recovery
  // overhead" of §3.1.
  bool allow_preemption = false;
  double preemption_overhead_seconds = 300.0;
  // Fairness-driven preemption OF pretraining (what Tiresias/Themis-style
  // schedulers do to long-running jobs): once a best-effort job has waited
  // past `fairness_wait_seconds`, the youngest pretraining job is evicted.
  // The victim rolls back to its last checkpoint — losing up to
  // `pretrain_rollback_cap_seconds` of 1000-GPU-scale work per eviction —
  // which is precisely the "considerable recovery overhead" of §3.1.
  bool preempt_pretraining_for_fairness = false;
  double fairness_wait_seconds = 1800.0;
  double pretrain_rollback_cap_seconds = 1800.0;  // checkpoint interval
  // Aggregate GPU cap for the evaluation class alone (fraction of cluster).
  double eval_cap_fraction = 0.05;
  // Backfill window: how many queued jobs past a stuck head the scheduler may
  // examine per class (Slurm-style conservative backfill).
  std::size_t backfill_depth = 64;
};

// Reservations tuned per cluster: Seren hosts the alignment/MLLM mix so its
// spare share is wider; Kalos is pretraining-dominated with a thin spare
// slice, which is what gives evaluation trials their long waits (Fig 6d).
SchedulerConfig seren_scheduler_config();
SchedulerConfig kalos_scheduler_config();

struct ReplayResult {
  // Jobs with queue_delay filled in (same order as the input trace).
  trace::Trace jobs;
  // Occupancy samples taken every sample_interval seconds.
  struct OccupancySample {
    double time;
    int busy_gpus;
    int total_gpus;
    int running_jobs;
    int queued_jobs;
  };
  std::vector<OccupancySample> occupancy;
  double makespan = 0;
  // Jobs still queued when the replay drained (demand that can never fit its
  // partition); should be zero for well-formed profiles.
  std::size_t unstarted = 0;
  // Preemptive-baseline accounting.
  int preemptions = 0;
  double wasted_gpu_seconds = 0;  // progress discarded by evictions
  // Failure-injection accounting (kill_job calls from acme::world).
  int failure_kills = 0;
  double failure_lost_gpu_seconds = 0;     // progress rolled back by kills
  double failure_restart_seconds = 0;      // recovery stalls charged to victims
};

class SchedulerReplay {
 public:
  // Legacy single-silo constructor: owns a private engine.
  SchedulerReplay(const cluster::ClusterSpec& spec, SchedulerConfig config = {});
  // Spine-injected constructor: replays on the caller's engine so scheduler
  // events interleave with every other subsystem's.
  SchedulerReplay(sim::Engine& engine, const cluster::ClusterSpec& spec,
                  SchedulerConfig config = {});

  // Replays the trace start-to-drain on the scheduler's engine; GPU jobs only
  // (CPU jobs pass through with zero delay). Equivalent to begin_replay() +
  // engine().run() + finish_replay(). The trace is taken by value: callers
  // that synthesize a trace just to replay it (world, experiments,
  // benchmarks) should move it in.
  ReplayResult replay(trace::Trace input, double sample_interval = 0);

  // Integrated-spine protocol: begin_replay() posts every submission and
  // schedules the occupancy sampler (relative to engine().now()) but does not
  // pump the engine; the caller runs the engine — interleaving its own
  // events — and collects the result with finish_replay() once the engine
  // drained. Submissions ride the engine's post lane, whose handler this
  // scheduler registers: an engine hosts at most one replay at a time.
  void begin_replay(trace::Trace input, double sample_interval = 0);
  ReplayResult finish_replay();

  sim::Engine& engine() { return *engine_; }

  // --- Mid-replay introspection and control (valid between begin_replay and
  // finish_replay; used by acme::world for live failure injection). ---

  // All submissions arrived, every queue is empty and nothing is running.
  bool drained() const;
  // Live view of the accumulating result (counters only; makespan and the
  // queue cleanup happen in finish_replay).
  const ReplayResult& partial_result() const { return *result_; }
  int running_jobs() const { return running_jobs_; }
  // Indices (into the active trace) of running pretraining jobs, oldest
  // first. The returned reference is a scratch snapshot rebuilt per call; it
  // stays valid until the next call but not across kill_job/engine steps.
  const std::vector<std::size_t>& running_pretrain_jobs() const;
  const trace::JobRecord& active_job(std::size_t index) const {
    return jobs_[index];
  }
  // Kills a running job mid-replay (a failure took its nodes down): releases
  // its GPUs, rolls back up to `rollback_cap_seconds` of progress (its last
  // checkpoint bounds the loss), charges `restart_overhead_seconds` of
  // recovery stall on its next start, and re-enqueues it at the back of its
  // class queue. Accounted separately from scheduler-policy preemptions.
  void kill_job(std::size_t index, double rollback_cap_seconds,
                double restart_overhead_seconds);

  // --- Global node addressing (cluster::DomainTree spans). The two
  // partitions tile one global node space: reserved nodes are global
  // [0, reserved_node_count()), shared nodes follow at an offset of
  // reserved_node_count(). Domain-correlated failures (acme::world) cordon
  // and kill by global span without knowing the partition split. ---
  int reserved_node_count() const;
  int total_node_count() const;
  // Appends (into `out`, which is cleared first) the indices of every
  // running job with at least one node inside the global node span
  // [first, first + count). Deterministic order: pretrain pool first,
  // then best-effort, each in pool (oldest-first) order.
  void running_jobs_on_nodes(int first, int count,
                             std::vector<std::size_t>& out) const;
  // Cordons / uncordons every node in the global span. Cordoned nodes take
  // no new placements; running jobs are untouched (kill them explicitly).
  // Uncordoning re-opens capacity and triggers a dispatch pass.
  void cordon_nodes(int first, int count);
  void uncordon_nodes(int first, int count);
  // Calls fn(global_node, gpus) for each node of running job `index`.
  template <typename Fn>
  void for_each_node_of(std::size_t index, Fn&& fn) const {
    for_each_node(recs_[live_record(index)], fn);
  }

  // --- Snapshot support (acme::snap, DESIGN.md §12). Valid only between
  // begin_replay and finish_replay. ---
  //
  // The snapshot carries the trace verbatim (JobRecord is a flat POD, so
  // this is one bulk copy and restore never re-synthesizes), plus everything
  // the replay has mutated: the live (queued or running) records in
  // ascending trace index, queue/pool orders as trace indices, both
  // partition ledgers, counters, and the completion/sampler event handles
  // (rebound into the restored engine). Pending submissions need nothing:
  // they are lane events in the engine section. Record ids never reach the
  // bytes, so save -> restore -> save is byte-equal.
  void save(snap::SnapshotWriter& w) const;
  // The engine must already hold the restored event spine.
  void restore_replay(snap::SnapshotReader& r);

  // The adopted trace (for restorers that derive hints from it).
  const trace::Trace& jobs() const { return jobs_; }

 private:
  // Ownership-transfer step of the legacy constructor: keeps the private
  // engine alive for the object's lifetime, exception-safely.
  SchedulerReplay(std::unique_ptr<sim::Engine> owned,
                  const cluster::ClusterSpec& spec, SchedulerConfig config);

  enum class QueueClass { kPretrain = 0, kNormal = 1, kEvaluation = 2 };
  static QueueClass classify(trace::WorkloadType type);
  static constexpr std::size_t kPoolPretrain = 0;
  static constexpr std::size_t kPoolBestEffort = 1;

  // Sizes the engine for jobs_, registers the submission lane's handler and
  // resets the record pool (begin_replay and restore share it).
  void reset_runtime_state();
  // Appends a fresh record (and its link ids) to the pool.
  std::uint32_t new_record();
  // Takes a free record for trace job `index` (on_submit, restore).
  std::uint32_t take_record(std::uint32_t index);
  // Record id of a queued or running job; ACME_CHECKs that it is live.
  std::uint32_t live_record(std::size_t index) const;
  // Places the record's gang on `part`.
  bool place(cluster::ClusterState& part, std::uint32_t rec);
  // Takes a running record off its nodes and running pool (completion and
  // eviction share it).
  void stop_running(std::uint32_t rec);
  void sample_occupancy(double interval);
  void on_submit(std::uint32_t index);
  void try_dispatch();
  bool try_start(std::uint32_t rec);
  void on_complete(std::uint32_t rec);
  // Evicts the youngest best-effort jobs until `gpus` can be gang-placed on
  // the shared partition; returns false if even a full eviction cannot help.
  bool preempt_for(int gpus);
  // Evicts one job (releasing its resources, accounting lost work, and
  // re-queueing it with the restart tax `overhead_seconds`). `rollback_cap`
  // bounds the loss for checkpointed (pretraining) victims; infinity means
  // start from scratch. `failure_kill` routes the accounting to the
  // failure-injection counters instead of the preemption ones.
  void evict(std::uint32_t rec, double rollback_cap, double overhead_seconds,
             bool failure_kill);
  // Fairness pass: starved best-effort heads may evict pretraining victims.
  void preempt_pretraining_if_starved();

  cluster::ClusterSpec spec_;
  SchedulerConfig config_;
  std::unique_ptr<sim::Engine> owned_engine_;  // legacy constructor only
  sim::Engine* engine_ = nullptr;
  // Reserved partition (pretraining only) and shared partition (everyone).
  cluster::ClusterState reserved_;
  cluster::ClusterState shared_;
  trace::Trace jobs_;
  // Runtime record of one live (queued or running) job. Records are pooled:
  // on_submit takes one, on_complete frees it, and an evicted job keeps its
  // own, so the pool holds the live jobs, not the trace. The class and gang
  // width are cached here so the dispatch walk never reads the trace.
  static constexpr std::uint32_t kNoRecord = common::kIndexNpos;
  struct JobRec {
    cluster::Allocation alloc;  // empty() <=> the job is not running
    sim::EventHandle completion;
    double started_at = 0.0;
    double extra_overhead = 0.0;  // restart tax added by evictions
    double progress_done = 0.0;   // work completed before an eviction
    double waiting_since = 0.0;   // last enqueue time (fairness clock)
    std::uint32_t job = kNoRecord;  // owning trace index; kNoRecord = free
    int gpus = 0;
    QueueClass cls = QueueClass::kNormal;
    bool on_reserved = false;
    bool delay_recorded = false;  // first-start delay already captured
  };
  // Calls fn(global_node, gpus) for each node of a running record.
  template <typename Fn>
  void for_each_node(const JobRec& rec, Fn&& fn) const {
    const int offset = rec.on_reserved ? 0 : reserved_.node_count();
    (rec.on_reserved ? reserved_ : shared_)
        .for_each_slice(rec.alloc, [&](cluster::NodeId node, int gpus) {
          fn(node + offset, gpus);
        });
  }
  std::vector<std::uint32_t> rec_of_;  // trace index -> record id or kNoRecord
  std::vector<JobRec> recs_;           // reserved to jobs_.size(), never moves
  std::vector<std::uint32_t> free_recs_;  // LIFO; the pool grows on demand
  ReplayResult result_storage_;
  ReplayResult* result_ = nullptr;
  double replay_start_ = 0;            // engine time at begin_replay
  std::size_t pending_submissions_ = 0;
  // Class queues and running pools are intrusive lists of record ids:
  // membership moves (dispatch, completion, eviction) are O(1) unlinks with
  // zero allocation. Queues and pools use SEPARATE link arenas because
  // try_start pushes a record into its running pool while the dispatch scan
  // still holds its queue links (each arena keeps the at-most-one-list
  // invariant). Both arenas grow with the record pool.
  common::IndexLinks queue_links_;
  common::IndexLinks pool_links_;
  common::IndexList queues_[3];        // FCFS, insertion order
  common::IndexList running_pools_[2]; // [kPoolPretrain], [kPoolBestEffort]; newest last
  mutable std::vector<std::size_t> pretrain_scratch_;
  // Coalesced dispatch: false means no capacity was freed since the last
  // full scan, so previously stuck jobs would fail try_start again and a new
  // submission only needs to probe itself (see on_submit).
  bool capacity_freed_ = true;
  int eval_gpus_in_use_ = 0;
  int eval_cap_ = 0;
  int running_jobs_ = 0;
  // Occupancy-sampler chain: handle of the pending sample event and its
  // cadence, tracked so a snapshot can rebind the self-re-arming callback.
  sim::EventHandle sample_event_;
  double sample_interval_ = 0;

  static cluster::ClusterSpec partition_spec(const cluster::ClusterSpec& spec,
                                             int nodes);
};

}  // namespace acme::sched
