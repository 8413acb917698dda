// Multi-pod world fleet: K independent Worlds on one parallel event drain.
//
// This is the multi-partition face of the parallel replay runtime (DESIGN.md
// §13). Each GROUP is a full World — its own cluster, trace, scheduler,
// failure chain — which makes it a genuine failure domain: no event ever
// crosses groups, so the conservative-window premise holds by construction
// and sim::WindowRunner may execute the groups' windows concurrently on an
// acme::task pool. The merged (time, group, seq) commit stream and every
// group report are byte-identical at any worker count and any window size.
//
// Group seeding: with one group the spec runs verbatim (run_world_fleet
// degenerates to run_world + a commit digest). With K > 1 group g re-seeds
// from Rng(spec.seed).fork("fleet-group-<g>") — the same label-forking
// discipline mc replication uses — so groups are statistically independent
// pods of the same scenario and the whole fleet is still a pure function of
// (spec, groups).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/window.h"
#include "world/world.h"

namespace acme::world {

struct FleetOptions {
  int groups = 1;             // independent pods (full cluster replicas)
  std::size_t workers = 1;    // task::Pool width; 0 = hardware concurrency
  // Lookahead Δ per window, simulated seconds. Groups never interact, so any
  // positive Δ is conservative-safe; <= 0 drains everything in one window.
  // Finite windows exist to bound per-window commit-log memory and to
  // exercise the multi-window merge (the property test randomizes Δ).
  double window_seconds = 0;
};

struct FleetRunReport {
  std::vector<WorldReport> groups;  // finished in group order
  std::uint64_t commit_digest = 0;  // WindowRunner's merged-stream digest
  sim::WindowStats windows;

  // FNV-1a fold of every group digest (group order) and the commit digest —
  // the worker-count-independence oracle for the fleet.
  std::uint64_t digest() const;

  // Fleet aggregates over equal-size pods.
  int failures_injected() const;
  double mean_goodput() const;
  double max_makespan_days() const;
};

FleetRunReport run_world_fleet(const ScenarioSpec& spec,
                               const FleetOptions& fleet);

}  // namespace acme::world
