// The benchmark's workloads and the three ways it drives a world replica:
// set-up, the untimed study, and the traced replica.
//
// Every workload is a Monte Carlo study: replica i runs the workload's
// scenario re-seeded from Rng(seed).fork("world-<i>"), exactly as
// world::run_world_mc does with stream label "world". The seed is the
// benchmark's --seed; the program only ever sees the resulting specs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ledger.h"
#include "world/world.h"

namespace perfbench {

struct Workload {
  std::string name;
  acme::world::ScenarioSpec spec;  // replica seeds are filled in per replica
  std::size_t replicas = 1;        // replicas (or branch futures) per study
  std::size_t threads = 1;         // replica threads of the mc study
  // seren-branch: the study restores its replicas as futures of `parents`
  // parent snapshots, replicas / parents futures each, instead of running
  // fresh replicas. Several parents keep the figures steady across seeds.
  std::size_t parents = 0;

  bool branch() const { return parents > 0; }
};

// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::string workload_names();  // space-separated, for usage text

// The scenario replica i of a study runs. Parent p of a branch study runs
// replica p's scenario; its future f is study replica p * futures + f.
acme::world::ScenarioSpec replica_spec(const Workload& w, std::uint64_t seed,
                                       std::size_t i);
std::size_t parent_of(const Workload& w, std::size_t i);  // i itself if not branch
std::size_t future_of(const Workload& w, std::size_t i);  // 0 if not branch

// What the checks and metrics read from one WorldReport. Holding summaries
// instead of reports keeps a long run's memory flat.
struct ReplicaSummary {
  std::uint64_t digest = 0;
  std::size_t jobs = 0;
  std::size_t unstarted = 0;
  double makespan_s = 0;
  double busy_fraction = 0;
  double busy_gpu_days = 0;
  double eval_delay_p50_s = 0;
  double goodput = 0;
  int failure_firings = 0;  // per-job chain events, with or without a victim
  int failure_kills = 0;
  int localizations = 0;
  int failures_total = 0;  // per-job kills plus domain-outage residents
  int infra_failures = 0;
  double failure_gpu_s = 0;  // lost work plus recovery-idled GPU time
  double infra_gpu_s = 0;
  int domain_outages = 0;
  int domain_jobs_killed = 0;
  bool served = false;
  double serve_offered = 0;
  double serve_completed = 0;
  double serve_slo_attainment = 0;
  double serve_ttft_p99_s = 0;
};
ReplicaSummary summarize(const acme::world::WorldReport& report,
                         std::uint64_t digest, double sample_interval_s);
// Empty when the report is plausible for the workload, else the reason.
std::string sanity_error(const ReplicaSummary& s, const Workload& w);

// One set-up pass: everything before the first measured replica. For a
// fresh-replica study that is one warm-up replica (replica 0); for
// seren-branch it is, per parent, the straight run, the run to the branch
// point, and the save.
struct SetUp {
  double seconds = 0;
  // The warm-up replica 0, or each parent's straight run: the digests that
  // replica 0, or each parent's future 0, must reproduce in every study.
  std::vector<std::uint64_t> reference_digests;
  // seren-branch only.
  std::vector<std::string> snapshots;  // each parent at its branch point
  double prepare_s = 0;  // parent World::prepare(), mean over parents
  double save_s = 0;     // parent World::save() into memory, mean
};
SetUp set_up(const Workload& w, std::uint64_t seed);

// One study with no tracing.
struct Study {
  std::vector<ReplicaSummary> replicas;
  std::vector<double> replica_cpu_s;  // synthesis to digest, thread CPU
  double wall_s = 0;
};
Study run_study(const Workload& w, std::uint64_t seed, const SetUp& setup);

// Ledger rows: a replica's wall time, split by layer. Each row is the self
// time of the calls into that layer; kUnattributed is whatever no call
// covers, so the rows sum to the replica's wall time.
enum Layer {
  kSynthesize,
  kConstruct,
  kSnap,
  kDrain,
  kTelemetry,
  kAggregate,
  kDigest,
  kTeardown,
  kUnattributed,
  kLayers
};
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "synthesize", "construct", "snap",     "drain",       "telemetry",
    "aggregate",  "digest",    "teardown", "unattributed"};

// One replica run call by call, each call a span in `log`, plus standalone
// probe calls beside it.
struct Traced {
  ReplicaSummary summary;
  double wall_s = 0;  // the replica's own calls, probes excluded
  double cpu_s = 0;
  std::array<double, kLayers> self_s{};
  double prepare_s = 0;   // World::prepare(); 0 for a restored future
  double synthesize_s = 0;  // probe: world::synthesize_trace(spec)
  std::size_t jobs = 0;     // jobs that probe synthesized
  double sample_s = 0;      // probe: FleetSampler built and sampled as finish() does
  std::uint64_t events = 0;
  std::uint64_t drain_allocs = 0;
  double save_s = 0;  // probe (fresh replicas): save at the drained point
  double restore_s = 0;
  std::size_t snap_bytes = 0;
  std::string error;  // empty when every check passed
};
Traced run_traced(const Workload& w, std::uint64_t seed, const SetUp& setup,
                  std::size_t i, SpanLog& log);

}  // namespace perfbench
