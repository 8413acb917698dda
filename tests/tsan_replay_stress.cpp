// ThreadSanitizer stress runner for concurrent world replays — a plain main
// (no gtest) so the TSan CI job sees only instrumented code.
//
// Randomized kill/recover/backfill churn at 8 threads: each iteration draws
// a scenario mutation (seed, failure cadence, checkpoint interval, recovery
// mode) and runs the full seren world — live Table 3 failure injection,
// §6.1 recovery, scheduler backfill — once serially and as 8 concurrent
// copies on 8 threads (task::parallel_for), checking every copy's report
// digest byte-identical to the serial one. A replica round (world::run_world_mc
// with 4-8 churny replicas at threads = 8 against threads = 1) covers the
// Monte Carlo path, where each replica re-seeds its own world. Exits
// non-zero on any digest or failure-count divergence; TSan itself fails the
// job on a data race.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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
  constexpr std::size_t kCopies = 8;
  std::vector<std::uint64_t> copies(kCopies);
  task::parallel_for(kCopies, kCopies, [&](std::size_t c) {
    copies[c] = world::run_world(spec).digest();
  });
  for (std::size_t c = 0; c < kCopies; ++c)
    check(copies[c] == serial.digest(),
          "copy " + std::to_string(c) + " digest identical on 8 threads "
          "(seed " + std::to_string(spec.seed) + ")");
  check(serial.failures_injected > 0,
        "churn actually injected failures (seed " +
            std::to_string(spec.seed) + ")");
}

void stress_replicas(common::Rng& rng) {
  world::ScenarioSpec spec = mutate_spec(rng);
  spec.scale = 1024;  // per replica; 4-8 replicas keep the round TSan-sized
  mc::ReplicationOptions options;
  options.replicas = 4 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  options.seed = spec.seed;
  options.threads = 1;
  const auto serial = world::run_world_mc(spec, options);
  options.threads = 8;
  const auto parallel = world::run_world_mc(spec, options);
  for (std::size_t i = 0; i < options.replicas; ++i) {
    const std::string where = " (seed " + std::to_string(spec.seed) +
                              ", replica " + std::to_string(i) + ")";
    check(parallel.results[i].digest() == serial.results[i].digest(),
          "replica digest identical at threads=8" + where);
    check(parallel.results[i].failures_injected ==
              serial.results[i].failures_injected,
          "replica failures_injected identical at threads=8" + where);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 4;
  std::uint64_t seed = 42;
  common::FlagSet flags("tsan_replay_stress");
  flags.add("--iters", &iters, "churn iterations (each runs copies + replicas)");
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
    stress_replicas(rng);
    std::printf("tsan_replay_stress: iteration %llu/%llu ok\n",
                static_cast<unsigned long long>(i + 1),
                static_cast<unsigned long long>(iters));
  }
  if (failures == 0) std::printf("tsan_replay_stress: OK\n");
  return failures == 0 ? 0 : 1;
}
