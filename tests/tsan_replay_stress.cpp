// ThreadSanitizer stress runner for the parallel window runtime — a plain
// main (no gtest) so the TSan CI job sees only instrumented code.
//
// Randomized kill/recover/backfill churn at 8 workers: each iteration draws
// a scenario mutation (seed, failure cadence, checkpoint interval, recovery
// mode) and runs the full seren world — live Table 3 failure injection,
// §6.1 recovery, scheduler backfill — once serially and once as a
// one-group world::run_world_fleet on an 8-wide work-stealing pool, checking
// the report digests byte-identical. A multi-group round (4-8 churny worlds
// in one run_world_fleet, drained concurrently on an 8-wide pool against the
// workers=1 drain) covers the multi-partition merge, where the actual
// cross-thread traffic lives. Exits non-zero on any digest or event-count
// divergence; TSan itself fails the job on a data race.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.h"
#include "common/rng.h"
#include "core/acme.h"

using namespace acme;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

// One churny world: failures on, cadence/checkpointing/recovery randomized.
world::ScenarioSpec mutate_spec(common::Rng& rng) {
  world::ScenarioSpec spec = world::seren_scenario();
  spec.scale = 128;  // 1/128 job volume: fast enough under TSan, still busy
  spec.seed = rng.next();
  spec.inject_failures = true;
  spec.failure_interval_scale = rng.uniform(0.4, 2.0);
  spec.ckpt_interval_seconds = rng.uniform(10 * 60.0, 60 * 60.0);
  spec.async_ckpt = rng.uniform() < 0.5;
  spec.auto_recovery = rng.uniform() < 0.75;  // manual TTR path too
  spec.fleet_samples = 500;
  return spec;
}

void stress_world_churn(common::Rng& rng) {
  const world::ScenarioSpec spec = mutate_spec(rng);
  const world::WorldReport serial = world::run_world(spec);
  const world::FleetRunReport parallel =
      world::run_world_fleet(spec, {.workers = 8});
  check(parallel.groups[0].digest() == serial.digest(),
        "world digest identical at workers=8 (seed " +
            std::to_string(spec.seed) + ")");
  check(serial.failures_injected > 0,
        "churn actually injected failures (seed " +
            std::to_string(spec.seed) + ")");
}

void stress_fleet_groups(common::Rng& rng) {
  world::ScenarioSpec spec = mutate_spec(rng);
  spec.scale = 1024;  // per group; 4-8 groups keep the drain TSan-sized
  const int groups = 4 + static_cast<int>(rng.uniform_int(0, 4));
  const double window = rng.uniform() < 0.5
                            ? rng.uniform(3600.0, 7 * 24 * 3600.0)
                            : 0;  // 0 = one window drains all
  const world::FleetRunReport serial = world::run_world_fleet(
      spec, {.groups = groups, .workers = 1, .window_seconds = window});
  const world::FleetRunReport parallel = world::run_world_fleet(
      spec, {.groups = groups, .workers = 8, .window_seconds = window});
  check(parallel.digest() == serial.digest(),
        "fleet digest identical at workers=8 (seed " +
            std::to_string(spec.seed) + ", " + std::to_string(groups) +
            " groups)");
  check(parallel.windows.events == serial.windows.events,
        "event counts identical across drains");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 4;
  std::uint64_t seed = 42;
  common::FlagSet flags("tsan_replay_stress");
  flags.add("--iters", &iters, "churn iterations (each runs world + fleet)");
  flags.add("--seed", &seed, "base seed for the mutation stream");
  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::fprintf(stderr, "tsan_replay_stress: %s\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }

  common::Rng rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    stress_world_churn(rng);
    stress_fleet_groups(rng);
    std::printf("tsan_replay_stress: iteration %llu/%llu ok\n",
                static_cast<unsigned long long>(i + 1),
                static_cast<unsigned long long>(iters));
  }
  if (failures == 0) std::printf("tsan_replay_stress: OK\n");
  return failures == 0 ? 0 : 1;
}
