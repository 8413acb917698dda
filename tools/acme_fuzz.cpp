// Determinism-oracle scenario fuzzer (DESIGN.md §12).
//
// Each iteration derives its own RNG stream (fork("iter-<i>") of --seed) and
// does one of two things:
//
//   * parser probe (~25%): splices a hostile value — nan/inf/-inf, a dropped
//     sign, a typo'd key — into scenario JSON and requires scenario_from_json
//     to reject it with a non-empty reason. A probe that PARSES is a finding.
//
//   * oracle run (~75%): mutates the base ScenarioSpec within typed bounds,
//     runs the world straight through, then re-runs it save-at-midpoint →
//     restore → run-to-end and requires the two WorldReport digests to be
//     byte-identical. Each iteration also draws a thread count W from
//     {1, 2, 8} (the workers mutation axis); W > 1 runs W copies of the
//     accepted mutant concurrently on W threads (task::parallel_for) and
//     requires every copy's digest to equal the straight run's. Any
//     divergence, thrown ACME_CHECK, or crash-by-exception is a finding.
//
// Findings are shrunk greedily — each mutated field is reverted toward the
// base spec while the failure persists — and the minimal reproducer (spec
// JSON or probe string, plus the exact repro command) lands in
// --artifact-dir. Exit 1 if anything was found, 0 on a clean sweep.
//
// Flags: --iters N --seed S --base SCENARIO --artifact-dir DIR --only I
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/acme.h"
#include "snap/format.h"

using namespace acme;

namespace {

// ---- oracle -----------------------------------------------------------

struct OracleOutcome {
  bool rejected = false;  // the world itself refused the spec up front
  std::string verdict;    // non-empty = a real finding
};

// Runs spec straight through and via save-at-midpoint/restore. A CheckError
// from the STRAIGHT run is the world rejecting an invalid configuration
// (e.g. a model too big for its replica's KV-cache) — that is loud-failure
// working as designed, not a determinism bug, so it is classified as
// `rejected`. Once the straight run succeeds, ANY exception or digest
// divergence on the save/restore path is a finding.
OracleOutcome oracle_verdict(const world::ScenarioSpec& spec,
                             std::size_t workers) {
  OracleOutcome out;
  std::uint64_t straight_digest = 0;
  double mid = 0;
  try {
    const world::WorldReport straight = world::World(spec).run();
    straight_digest = straight.digest();
    mid = straight.replay.makespan * 0.5;
    if (spec.serving())
      mid = std::max(mid, spec.serve_duration_seconds * 0.5);
  } catch (const common::CheckError&) {
    out.rejected = true;
    return out;
  } catch (const std::exception& e) {
    out.verdict = std::string("straight run threw non-check: ") + e.what();
    return out;
  }
  // Workers axis: `workers` copies of an accepted mutant, drained
  // concurrently on that many threads, must each reach the straight digest.
  if (workers > 1) {
    try {
      std::vector<std::uint64_t> copies(workers);
      task::parallel_for(workers, workers, [&](std::size_t c) {
        copies[c] = world::World(spec).run().digest();
      });
      for (std::size_t c = 0; c < workers; ++c) {
        if (copies[c] != straight_digest) {
          out.verdict = "concurrent copy digest divergence (workers=" +
                        std::to_string(workers) + ", copy " +
                        std::to_string(c) + "): straight " +
                        common::fnv1a_hex(straight_digest) + " vs copy " +
                        common::fnv1a_hex(copies[c]);
          return out;
        }
      }
    } catch (const std::exception& e) {
      out.verdict = std::string("concurrent copy threw (workers=") +
                    std::to_string(workers) + "): " + e.what();
      return out;
    }
  }
  try {
    world::World a(spec);
    a.run_until(mid);
    snap::SnapshotWriter w;
    a.save(w);
    snap::SnapshotReader r(w.finish());
    world::World b(spec);
    b.restore(r);
    b.run_until(std::numeric_limits<double>::infinity());
    if (!b.done()) {
      out.verdict = "restored world did not drain its event queue";
      return out;
    }
    const std::uint64_t resumed = b.finish().digest();
    if (straight_digest != resumed)
      out.verdict = "digest divergence: straight " +
                    common::fnv1a_hex(straight_digest) + " vs resumed " +
                    common::fnv1a_hex(resumed);
    return out;
  } catch (const std::exception& e) {
    out.verdict = std::string("save/restore path threw: ") + e.what();
    return out;
  }
}

// ---- mutations --------------------------------------------------------

// One typed-bounds mutation per mutable field. Bounds keep each world cheap
// (high scale = few jobs, short serve horizons) so hundreds of oracle runs
// fit in a CI stress slot.
struct Mutator {
  const char* field;
  void (*apply)(world::ScenarioSpec&, common::Rng&);
  void (*revert)(world::ScenarioSpec&, const world::ScenarioSpec&);
};

const Mutator kMutators[] = {
    {"scale",
     [](world::ScenarioSpec& s, common::Rng& r) {
       s.scale = r.uniform(100.0, 400.0);
     },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.scale = b.scale;
     }},
    {"seed",
     [](world::ScenarioSpec& s, common::Rng& r) { s.seed = r.next(); },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.seed = b.seed;
     }},
    {"inject_failures",
     [](world::ScenarioSpec& s, common::Rng&) {
       s.inject_failures = !s.inject_failures;
     },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.inject_failures = b.inject_failures;
     }},
    {"failure_interval_scale",
     [](world::ScenarioSpec& s, common::Rng& r) {
       s.failure_interval_scale = r.uniform(0.25, 4.0);
     },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.failure_interval_scale = b.failure_interval_scale;
     }},
    {"auto_recovery",
     [](world::ScenarioSpec& s, common::Rng&) {
       s.auto_recovery = !s.auto_recovery;
     },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.auto_recovery = b.auto_recovery;
     }},
    {"ckpt_interval_seconds",
     [](world::ScenarioSpec& s, common::Rng& r) {
       s.ckpt_interval_seconds = r.uniform(300.0, 7200.0);
     },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.ckpt_interval_seconds = b.ckpt_interval_seconds;
     }},
    {"async_ckpt",
     [](world::ScenarioSpec& s, common::Rng&) { s.async_ckpt = !s.async_ckpt; },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.async_ckpt = b.async_ckpt;
     }},
    {"sample_interval_seconds",
     [](world::ScenarioSpec& s, common::Rng& r) {
       s.sample_interval_seconds = r.uniform(300.0, 3600.0);
     },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.sample_interval_seconds = b.sample_interval_seconds;
     }},
    {"fleet_samples",
     [](world::ScenarioSpec& s, common::Rng& r) {
       s.fleet_samples = static_cast<std::size_t>(r.next() % 500);
     },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.fleet_samples = b.fleet_samples;
     }},
    {"serve",
     [](world::ScenarioSpec& s, common::Rng& r) {
       s.serve_replicas = 1 + static_cast<int>(r.next() % 3);
       s.serve_rps = r.uniform(5.0, 40.0);
       s.serve_duration_seconds = r.uniform(300.0, 1200.0);
     },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.serve_replicas = b.serve_replicas;
       s.serve_rps = b.serve_rps;
       s.serve_duration_seconds = b.serve_duration_seconds;
     }},
    {"topology",
     [](world::ScenarioSpec& s, common::Rng& r) {
       // Correlated-failure axis: a tiered fleet with domain outages armed.
       // Fleet sizes stay >= the largest campaign demand (2048 GPUs) so the
       // scheduler accepts the preset trace; tier shapes stay small enough
       // that hundreds of oracle runs fit a CI stress slot.
       const int node_choices[] = {0, 286, 512, 1024};
       s.node_count = node_choices[r.next() % 4];
       s.topo_datacenters = 1 + static_cast<int>(r.next() % 3);
       s.topo_pods_per_dc = 1 + static_cast<int>(r.next() % 4);
       const int switch_choices[] = {0, 4, 8};
       s.topo_nodes_per_switch = switch_choices[r.next() % 3];
       s.domain_failures = (r.next() % 2) == 0;
       s.domain_failure_interval_scale = r.uniform(0.01, 1.0);
     },
     [](world::ScenarioSpec& s, const world::ScenarioSpec& b) {
       s.node_count = b.node_count;
       s.topo_datacenters = b.topo_datacenters;
       s.topo_pods_per_dc = b.topo_pods_per_dc;
       s.topo_nodes_per_switch = b.topo_nodes_per_switch;
       s.domain_failures = b.domain_failures;
       s.domain_failure_interval_scale = b.domain_failure_interval_scale;
     }},
};
constexpr std::size_t kMutatorCount = sizeof(kMutators) / sizeof(kMutators[0]);

// ---- parser probes ----------------------------------------------------

// Returns a non-empty description if the parser ACCEPTED hostile input (or
// blew up non-locally). `probe_out` receives the JSON that was tried.
std::string parser_probe(common::Rng& rng, std::string* probe_out) {
  static const char* kDoubleKeys[] = {
      "scale",          "failure_interval_scale", "ckpt_interval_seconds",
      "sample_interval_seconds", "serve_rps",     "serve_duration_seconds",
      "trace_multiplier",        "domain_failure_interval_scale",
  };
  static const char* kBadValues[] = {"nan", "inf", "-inf", "-8", "-0.5",
                                     "-1e6"};
  std::string json;
  switch (rng.next() % 3) {
    case 0: {  // hostile number in a known key
      const char* key = kDoubleKeys[rng.next() % std::size(kDoubleKeys)];
      const char* bad = kBadValues[rng.next() % std::size(kBadValues)];
      json = std::string("{\"") + key + "\":" + bad + "}";
      break;
    }
    case 1: {  // hostile number hidden among valid keys
      const char* bad = kBadValues[rng.next() % 3];  // only the non-finite ones
      json = std::string("{\"scale\":8,\"serve_replicas\":1,\"serve_rps\":") +
             bad + "}";
      break;
    }
    default: {  // typo'd key — must produce a did-you-mean rejection
      json = "{\"scael\":8}";
      break;
    }
  }
  *probe_out = json;
  try {
    std::string error;
    const auto spec = world::scenario_from_json(json, &error);
    if (spec.has_value())
      return "parser accepted hostile input: " + json;
    if (error.empty()) return "parser rejected without a reason: " + json;
    return "";
  } catch (const std::exception& e) {
    return std::string("parser threw instead of rejecting: ") + e.what();
  }
}

// ---- shrinking --------------------------------------------------------

// Greedily reverts mutated fields toward the base spec while the oracle
// still fails; returns the minimal failing spec.
world::ScenarioSpec shrink(world::ScenarioSpec failing,
                           const world::ScenarioSpec& base,
                           const std::vector<std::size_t>& applied,
                           std::size_t workers, std::string* verdict) {
  for (std::size_t idx : applied) {
    world::ScenarioSpec candidate = failing;
    kMutators[idx].revert(candidate, base);
    const OracleOutcome o = oracle_verdict(candidate, workers);
    if (!o.rejected && !o.verdict.empty()) {
      failing = candidate;
      *verdict = o.verdict;
      std::printf("  [shrink] reverted %s — still fails\n",
                  kMutators[idx].field);
    }
  }
  return failing;
}

struct Finding {
  std::uint64_t iter;
  std::string kind;     // "oracle" | "parser"
  std::string verdict;  // why it failed
  std::string repro;    // spec JSON or probe JSON
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 100;
  std::uint64_t seed = 1;
  std::uint64_t only = std::numeric_limits<std::uint64_t>::max();
  std::string base_name = "seren";
  std::string artifact_dir = "fuzz-artifacts";

  common::FlagSet flags("acme_fuzz");
  flags.add("--iters", &iters, "scenarios to fuzz (default 100)");
  flags.add("--seed", &seed, "root seed; iteration i uses fork(\"iter-i\")");
  flags.add("--base", &base_name,
            "registered scenario the mutations start from (default seren)");
  flags.add("--artifact-dir", &artifact_dir,
            "where failing reproducers are written (default fuzz-artifacts)");
  flags.add("--only", &only,
            "re-run exactly this iteration index (reproducer mode)");
  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::fprintf(stderr, "acme_fuzz: %s\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  const auto base_opt = world::find_scenario(base_name);
  if (!base_opt) {
    std::fprintf(stderr, "acme_fuzz: unknown base scenario \"%s\"\n",
                 base_name.c_str());
    return 2;
  }
  // The fuzz base trims the preset to fuzz-speed: high scale = few jobs.
  world::ScenarioSpec base = *base_opt;
  base.scale = std::max(base.scale, 100.0);
  base.fleet_samples = std::min<std::size_t>(base.fleet_samples, 200);

  const common::Rng root(seed);
  std::vector<Finding> findings;
  std::uint64_t oracle_runs = 0, parser_probes = 0, rejected_specs = 0;

  const std::uint64_t first = only != std::numeric_limits<std::uint64_t>::max()
                                  ? only
                                  : 0;
  const std::uint64_t last = only != std::numeric_limits<std::uint64_t>::max()
                                 ? only + 1
                                 : iters;
  for (std::uint64_t i = first; i < last; ++i) {
    common::Rng rng = root.fork("iter-" + std::to_string(i));
    if (rng.next() % 4 == 0) {  // parser probe
      ++parser_probes;
      std::string probe;
      const std::string verdict = parser_probe(rng, &probe);
      if (!verdict.empty()) {
        std::printf("[%llu] PARSER FINDING: %s\n",
                    static_cast<unsigned long long>(i), verdict.c_str());
        findings.push_back({i, "parser", verdict, probe});
      }
      continue;
    }
    // Oracle run: mutate 1..4 fields within typed bounds.
    ++oracle_runs;
    world::ScenarioSpec spec = base;
    spec.name = "fuzz-" + std::to_string(i);
    std::vector<std::size_t> applied;
    const std::size_t count = 1 + rng.next() % 4;
    for (std::size_t m = 0; m < count; ++m) {
      const std::size_t idx = rng.next() % kMutatorCount;
      kMutators[idx].apply(spec, rng);
      applied.push_back(idx);
    }
    // Workers mutation axis: drawn from the same iteration stream, so
    // --only <i> reproduces the width along with the field mutations.
    static constexpr std::size_t kWorkersAxis[] = {1, 2, 8};
    const std::size_t workers = kWorkersAxis[rng.next() % 3];
    const OracleOutcome outcome = oracle_verdict(spec, workers);
    if (outcome.rejected) {
      ++rejected_specs;
    } else if (!outcome.verdict.empty()) {
      std::string verdict = outcome.verdict;
      std::printf("[%llu] ORACLE FINDING (workers=%zu): %s\n",
                  static_cast<unsigned long long>(i), workers,
                  verdict.c_str());
      spec = shrink(spec, base, applied, workers, &verdict);
      findings.push_back({i, "oracle", verdict, spec.to_json()});
    }
    if ((i + 1) % 50 == 0)
      std::printf("[fuzz] %llu/%llu iterations, %zu findings\n",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(last), findings.size());
  }

  std::printf("\n[fuzz] done: %llu oracle runs (%llu specs rejected up "
              "front), %llu parser probes, %zu findings\n",
              static_cast<unsigned long long>(oracle_runs),
              static_cast<unsigned long long>(rejected_specs),
              static_cast<unsigned long long>(parser_probes), findings.size());
  if (findings.empty()) return 0;

  std::filesystem::create_directories(artifact_dir);
  for (const Finding& f : findings) {
    const std::string stem =
        artifact_dir + "/repro-" + std::to_string(f.iter);
    std::ofstream(stem + ".json") << f.repro << "\n";
    std::ofstream meta(stem + ".txt");
    meta << "kind: " << f.kind << "\n"
         << "verdict: " << f.verdict << "\n"
         << "seed: " << seed << "\n"
         << "iteration: " << f.iter << "\n"
         << "repro: acme_fuzz --seed " << seed << " --only " << f.iter
         << " --base " << base_name << " --artifact-dir " << artifact_dir
         << "\n";
    std::printf("[fuzz] reproducer written: %s.{json,txt}\n", stem.c_str());
  }
  return 1;
}
