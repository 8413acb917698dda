// Declarative end-to-end scenario description for acme::world.
//
// A ScenarioSpec names everything an integrated run needs — which cluster,
// how much of the six-month trace, whether failures fire live, how recovery
// is priced — as plain data. Specs round-trip through a flat JSON object, so
// scenario files can drive the bench harness, and the presets are resolvable
// by name. The seren/kalos presets are
// the one definition of the Acme cluster assemblies: the world driver, the
// characterization benches (which run them with inject_failures off) and the
// tests all resolve their cluster, trace and scheduler from here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/spec.h"
#include "comm/topology.h"
#include "sched/scheduler.h"
#include "trace/job.h"
#include "trace/workload_profile.h"

namespace acme::world {

struct ScenarioSpec {
  std::string name = "custom";
  std::string cluster = "seren";  // "seren" | "kalos"
  // Trace scale: values >= 1 divide the six-month job volume (8 = 1/8 of the
  // trace), values in (0, 1) are the fraction kept (0.125 is the same 1/8).
  // 1.0 replays the full trace.
  double scale = 1.0;
  double sample_interval_seconds = 900.0;  // occupancy timeline resolution
  std::uint64_t seed = 42;
  // Live failure injection (paper §5, Table 3) against running pretraining
  // jobs; failure_interval_scale stretches the sampled inter-failure times
  // (2.0 = failures half as often).
  bool inject_failures = true;
  double failure_interval_scale = 1.0;
  // Recovery pricing. With auto_recovery the §6.1 pipeline is charged:
  // log-based diagnosis, a two-round localization for hardware faults, NCCL
  // bring-up at the victim's world size, checkpoint reload. Without it the
  // victim pays the manual on-call TTR sampled from Table 3.
  bool auto_recovery = true;
  double ckpt_interval_seconds = 30.0 * 60.0;  // bounds rollback lost-work
  bool async_ckpt = true;  // async persist lag extends the rollback window
  // Fleet telemetry observations sampled from the replay's occupancy.
  std::uint64_t fleet_samples = 20000;
  // Pretraining replay on/off. A serve-only scenario turns it off and must
  // then configure a serving fleet.
  bool pretrain = true;
  // Inference serving fleet (src/serve): serve_replicas == 0 disables
  // serving, > 0 stands up that many tensor-parallel replicas next to (or
  // instead of) the pretraining replay. With inject_failures on, Table 3
  // failures hit serve replicas in proportion to their share of the fleet.
  // Each replica is serve::ServeConfig's default: an 8-GPU LLaMA-7B server
  // with its diurnal/MMPP traffic shape and TTFT/TPOT SLO targets.
  int serve_replicas = 0;
  double serve_rps = 100.0;                // long-run offered requests/second
  double serve_duration_seconds = 3600.0;  // arrival horizon
  // --- Hierarchical topology & hyperscale (ROADMAP item 2). ---
  // node_count == 0 keeps the cluster's Table 1 node count; > 0 overrides
  // it (hyperscale fleets reuse the cluster's node hardware profile).
  int node_count = 0;
  // DomainTree shape: datacenters -> pods (PDU/spine blocks) -> rail/switch
  // groups. All-default = today's flat single-room layout.
  int topo_datacenters = 1;
  int topo_pods_per_dc = 1;
  int topo_nodes_per_switch = 0;  // 0 = one switch group per pod
  // Trace-volume multiplier on top of `scale`: a 10x larger fleet hosts
  // ~10x the jobs inside the same (scaled) trace window.
  double trace_multiplier = 1.0;
  // Correlated domain outages (switch/PDU/cooling, Table 2) on top of the
  // per-job Table 3 stream. Only armed when the topology is non-trivial.
  bool domain_failures = false;
  double domain_failure_interval_scale = 1.0;

  bool serving() const { return serve_replicas > 0; }
  bool kalos() const { return cluster == "kalos"; }
  // Normalized trace divisor: scale >= 1 verbatim, (0,1) inverted.
  double trace_divisor() const;

  std::string to_json() const;

  bool operator==(const ScenarioSpec&) const = default;
};

// Parses a flat JSON object written by to_json. Unknown keys are an error
// with a Levenshtein "did you mean" suggestion (the same strictness as
// common::FlagSet), and duplicate keys are rejected rather than last-write
// wins. Returns nullopt and fills *error on malformed input.
std::optional<ScenarioSpec> scenario_from_json(const std::string& json,
                                               std::string* error = nullptr);

// Presets: the two Acme clusters at their usual bench scales (Seren 1/8 of
// the six-month trace, Kalos full), a serve-only Seren fleet, and a
// co-located train+serve Seren world with live failures.
ScenarioSpec seren_scenario();
ScenarioSpec kalos_scenario();
ScenarioSpec serve_seren_scenario();
ScenarioSpec colocated_seren_scenario();

// Hyperscale generator family (ROADMAP item 2): ~n_gpus of Seren-profile
// nodes spread over n_dcs datacenters with rail-optimized 32-node pods,
// 8-node switch groups, spine/long-haul fabric tiers, correlated domain
// failures, and trace volume proportional to fleet size.
ScenarioSpec hyperscale_scenario(int n_gpus, int n_dcs);
// Preset "hyperscale-small": a 1024-node 2-DC fleet small enough
// for the determinism matrix (straight + snapshot-resume + workers).
ScenarioSpec hyperscale_small_scenario();

// The five presets above by name ("seren", "kalos", "serve-seren",
// "colocated-seren", "hyperscale-small"); names come back sorted.
std::optional<ScenarioSpec> find_scenario(const std::string& name);
std::vector<std::string> scenario_names();

// The cluster-model inputs a spec resolves to: full-scale workload profile,
// hardware spec, scheduler policy, and the fabric used to price recovery.
struct ClusterInputs {
  trace::ClusterWorkloadProfile profile;
  cluster::ClusterSpec spec;
  sched::SchedulerConfig sched_config;
  comm::FabricConfig fabric;
};
ClusterInputs cluster_inputs(const ScenarioSpec& spec);

// The scaled GPU-only job stream the spec's world replays (CPU jobs never
// touch the GPU scheduler).
trace::Trace synthesize_trace(const ScenarioSpec& spec);

}  // namespace acme::world
