// Parallel replay speedup: the sharded six-month replay drained by the
// work-stealing window runtime (DESIGN.md §13) against the serial drain of
// the identical composition, in one process on one machine.
//
// The workload is BM_SixMonthReplay's: the seren preset's synthesized trace
// at --scale, split round-robin into --shards pods (sched::shard_trace),
// each pod a full cluster replica with its own engine. Both columns drain
// through sim::WindowRunner — serial passes a null pool, parallel an
// acme::task pool of --workers — so the comparison isolates the runtime,
// not the bookkeeping around it. Every repetition checks the merged commit
// digest and the per-shard outcome digest for byte-identity between the two
// drains (exit 1 on divergence: a perf win that breaks determinism loses).
//
// Two gates, enforced by the binary itself:
//   * allocation freedom: the shared operator-new hook brackets the
//     measured parallel drain; any steady-state heap allocation at
//     --workers 8 exits 1 (the runner's commit logs and the pool's task
//     rings are pre-grown by a warm-up repetition).
//   * speedup: median parallel events/s must be >= --min-speedup x the
//     serial median — enforced only when the machine has at least
//     --workers hardware threads (a 1-core CI box cannot exhibit
//     parallelism; the determinism oracle still runs there).
//
// Flags: --workers W --shards N --scale S --reps R --seed S --window SECONDS
//        --min-speedup X --json out.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "bench_util.h"

using namespace acme;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// One drain of the sharded composition: fresh pods over copies of the
// pre-sharded slices, windows merged by the runner. Setup (trace copies,
// begin_replay table sizing, reserve calls) happens before the bracketed
// region; only the drain itself is timed and allocation-counted.
struct DrainResult {
  double wall = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t digest = 0;  // shard outcomes + merged commit stream
};

DrainResult drain_once(const world::ClusterInputs& inputs,
                       const std::vector<trace::Trace>& slices,
                       task::Pool* pool, double lookahead,
                       std::size_t reserve_commits) {
  const std::size_t shards = slices.size();
  std::vector<std::unique_ptr<sched::SchedulerReplay>> pods;
  pods.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    pods.push_back(std::make_unique<sched::SchedulerReplay>(
        inputs.spec, inputs.sched_config));
    pods[s]->begin_replay(trace::Trace(slices[s]));
  }
  sim::WindowRunner runner;
  for (std::size_t s = 0; s < shards; ++s)
    runner.add_partition(pods[s]->engine(), static_cast<std::uint32_t>(s));
  if (reserve_commits > 0) runner.reserve(reserve_commits);
  if (pool != nullptr) pool->reserve(64);

  DrainResult out;
  const std::uint64_t allocs_before = bench::heap_allocs();
  const auto t0 = std::chrono::steady_clock::now();
  const sim::WindowStats stats = runner.run(pool, lookahead);
  const auto t1 = std::chrono::steady_clock::now();
  out.allocs = bench::heap_allocs() - allocs_before;
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  out.events = stats.events;

  // Digest, folded after the measured region: per-shard outcomes in shard
  // order (makespan, unstarted count, job count, then every job's id and
  // queue delay), then the merged commit stream — byte-identical across
  // drains iff the runtime changed nothing observable.
  common::Fnv1a fold;
  const auto fold_u64 = [&fold](std::uint64_t v) {
    fold.update(std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
  };
  const auto fold_f64 = [&fold_u64](double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    fold_u64(bits);
  };
  for (std::size_t s = 0; s < shards; ++s) {
    const sched::ReplayResult result = pods[s]->finish_replay();
    fold_f64(result.makespan);
    fold_u64(result.unstarted);
    fold_u64(result.jobs.size());
    for (const trace::JobRecord& job : result.jobs) {
      fold_u64(job.id);
      fold_f64(job.queue_delay);
    }
  }
  fold_u64(runner.commit_digest());
  out.digest = fold.digest();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t workers = 8;
  std::uint64_t shards = 8;
  double scale = 64.0;  // BM_SixMonthReplay's scale: distributions intact,
                        // job volume divided for bench-speed iteration
  std::uint64_t reps = 3;
  std::uint64_t seed = 42;
  double window = 0;  // <= 0: one conservative window per drain
  double min_speedup = 3.0;
  std::string json_path;

  common::FlagSet flags("bench_parallel_replay");
  flags.add("--workers", &workers, "pool width for the parallel column");
  flags.add("--shards", &shards, "pods the trace is split across");
  flags.add("--scale", &scale, "trace scale (64 = 1/64 job volume)");
  flags.add("--reps", &reps, "repetitions; medians are reported");
  flags.add("--seed", &seed, "trace synthesis seed");
  flags.add("--window", &window,
            "lookahead window seconds (0 = drain in a single window)");
  flags.add("--min-speedup", &min_speedup,
            "parallel/serial gate, enforced when the machine has >= "
            "--workers hardware threads");
  flags.add("--json", &json_path,
            "write a BENCH-format results JSON for tools/bench_compare.py");
  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::fprintf(stderr, "bench_parallel_replay: %s\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  if (workers == 0) workers = 1;
  if (shards == 0) shards = 1;
  if (reps == 0) reps = 1;
  const double lookahead =
      window > 0 ? window : std::numeric_limits<double>::infinity();
  const std::size_t cores = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());

  bench::header("ParallelReplay",
                "Work-stealing window drain vs serial, one sharded replay");
  std::printf("seren @ scale %.3g, %llu shards, %llu workers, %llu reps "
              "(%zu hardware threads)\n",
              scale, static_cast<unsigned long long>(shards),
              static_cast<unsigned long long>(workers),
              static_cast<unsigned long long>(reps), cores);

  world::ScenarioSpec scenario = world::seren_scenario();
  scenario.scale = scale;
  scenario.seed = seed;
  const world::ClusterInputs inputs = world::cluster_inputs(scenario);
  const trace::Trace jobs = world::synthesize_trace(scenario);
  const std::vector<trace::Trace> slices = sched::shard_trace(jobs, shards);
  std::printf("trace: %zu jobs -> %zu per shard (round-robin)\n", jobs.size(),
              slices.empty() ? 0 : slices[0].size());

  task::Pool pool(static_cast<std::size_t>(workers));

  // Warm-up drains, untimed: grow the engines' high-water marks, the
  // runner's commit logs and the pool's task rings; also yields the commit
  // count the measured runs reserve against.
  const DrainResult warm_serial =
      drain_once(inputs, slices, nullptr, lookahead, 0);
  const std::size_t reserve_commits =
      static_cast<std::size_t>(warm_serial.events) + 1024;
  const DrainResult warm_parallel =
      drain_once(inputs, slices, &pool, lookahead, reserve_commits);
  if (warm_parallel.digest != warm_serial.digest) {
    std::fprintf(stderr,
                 "bench_parallel_replay: warm-up digest divergence — the "
                 "parallel drain is not byte-identical to serial\n");
    return 1;
  }

  std::vector<double> serial_walls, parallel_walls;
  std::uint64_t parallel_allocs = 0;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const DrainResult s =
        drain_once(inputs, slices, nullptr, lookahead, reserve_commits);
    const DrainResult p =
        drain_once(inputs, slices, &pool, lookahead, reserve_commits);
    if (s.digest != warm_serial.digest || p.digest != warm_serial.digest) {
      std::fprintf(stderr,
                   "bench_parallel_replay: digest divergence on rep %llu — "
                   "serial/parallel drains must be byte-identical\n",
                   static_cast<unsigned long long>(rep));
      return 1;
    }
    serial_walls.push_back(s.wall);
    parallel_walls.push_back(p.wall);
    parallel_allocs += p.allocs;
  }

  const double serial_s = median(serial_walls);
  const double parallel_s = median(parallel_walls);
  const double events = static_cast<double>(warm_serial.events);
  const double serial_eps = serial_s > 0 ? events / serial_s : 0;
  const double parallel_eps = parallel_s > 0 ? events / parallel_s : 0;
  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0;
  const bool gate_active = cores >= static_cast<std::size_t>(workers);

  common::Table table({"metric", "value"});
  table.add_row({"events per drain", std::to_string(warm_serial.events)});
  table.add_row({"serial drain (median)",
                 common::Table::num(serial_s * 1e3, 2) + " ms"});
  table.add_row({"parallel drain (median)",
                 common::Table::num(parallel_s * 1e3, 2) + " ms"});
  table.add_row({"serial events/s",
                 common::Table::num(serial_eps / 1e6, 2) + "M"});
  table.add_row({"parallel events/s",
                 common::Table::num(parallel_eps / 1e6, 2) + "M"});
  table.add_row({"speedup", common::Table::num(speedup, 2) + "x"});
  table.add_row({"pool steals", std::to_string(pool.steals())});
  table.add_row({"parallel drain allocations",
                 std::to_string(parallel_allocs)});
  std::printf("%s", table.render().c_str());

  bench::recap("serial == parallel digest",
               "byte-identical at any worker count (DESIGN.md §13)",
               "identical on all " + std::to_string(reps + 1) + " drains");
  bench::recap("parallel speedup at " + std::to_string(workers) + " workers",
               ">= " + common::Table::num(min_speedup, 1) + "x serial",
               common::Table::num(speedup, 2) + "x" +
                   (gate_active ? "" : " (gate skipped: " +
                                           std::to_string(cores) +
                                           " hardware threads)"));
  bench::recap("measured-drain heap allocations", "0 (pooled hot path)",
               std::to_string(parallel_allocs));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"workers\": " << workers << ",\n  \"results\": {\n"
        << "    \"bench_parallel_replay/serial\": { \"items_per_second\": "
        << static_cast<std::uint64_t>(serial_eps) << " },\n"
        << "    \"bench_parallel_replay/workers:" << workers
        << "\": { \"items_per_second\": "
        << static_cast<std::uint64_t>(parallel_eps)
        << ", \"run_allocs\": " << parallel_allocs << " }\n  }\n}\n";
    std::printf("[json] results written to %s\n", json_path.c_str());
  }

  if (parallel_allocs != 0) {
    std::fprintf(stderr,
                 "bench_parallel_replay: %llu heap allocations in the "
                 "measured parallel drain (expected 0)\n",
                 static_cast<unsigned long long>(parallel_allocs));
    return 1;
  }
  if (gate_active && speedup < min_speedup) {
    std::fprintf(stderr,
                 "bench_parallel_replay: %.2fx speedup at %llu workers on "
                 "%zu hardware threads (gate: >= %.1fx)\n",
                 speedup, static_cast<unsigned long long>(workers), cores,
                 min_speedup);
    return 1;
  }
  return 0;
}
