// Serve hot-path throughput: raw sustained simulated requests/second through
// the continuous-batching spine, with the shared operator-new hook proving
// the steady state allocation-free.
//
// The measured region is one engine drain of a pre-warmed fleet: a warm-up
// run at the same configuration grows every pool (engine slots, the sorted
// run, request pool, rings) to steady-state capacity, engine.reset() keeps
// the capacity, and the second run is bracketed by the allocation counter.
// Any heap allocation between the first arrival and the drain is a
// regression (exit 1), matching BM_SixMonthReplay's run_allocs=0 contract.
//
// The default traffic is deliberately flat (mild diurnal swing, no MMPP
// bursts): the bench measures the spine — event dispatch, admission into
// the finish-sorted batch, epoch settling, latency histograms — not the
// trigonometry of an interesting arrival process. bench_serve_slo covers
// the shaped-traffic behaviour.
//
// Flags: --replicas N --rps R --seconds SIMULATED --seed S --json out.json
#include <chrono>
#include <cstdio>
#include <fstream>

#include "perfbench/alloc_hook.h"
#include "bench_util.h"

using namespace acme;

int main(int argc, char** argv) {
  std::uint64_t replicas = 64;
  double rps = 2000.0;  // ~1.4x fleet capacity: admission, settle and
                        // rejection paths all stay hot
  double seconds = 600.0;
  std::uint64_t seed = 42;
  std::string json_path;

  common::FlagSet flags("bench_serve_spine");
  bench::BenchCli obs_cli;
  flags.add("--trace-out", &obs_cli.trace_path,
            "write a Chrome trace-event JSON of this run (Perfetto-loadable)");
  flags.add("--metrics-out", &obs_cli.metrics_path,
            "write the self-observability metrics as Prometheus text");
  flags.add("--replicas", &replicas, "serving replicas in the fleet");
  flags.add("--rps", &rps, "long-run offered requests/second");
  flags.add("--seconds", &seconds, "simulated arrival horizon");
  flags.add("--seed", &seed, "arrival-process seed");
  flags.add("--json", &json_path,
            "write a BENCH-format results JSON for tools/bench_compare.py");
  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::fprintf(stderr, "bench_serve_spine: %s\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  if (!obs_cli.trace_path.empty() || !obs_cli.metrics_path.empty())
    obs::set_enabled(true);

  serve::ServeConfig cfg = bench::serve_seren_config();
  cfg.replicas = static_cast<int>(replicas);
  cfg.horizon_seconds = seconds;
  cfg.traffic.mean_rps = rps;
  cfg.traffic.diurnal_amplitude = 0.25;
  cfg.traffic.diurnal_period_seconds = 3600.0;
  cfg.traffic.burst_multiplier = 1.0;  // flat: measure the spine, not sin()
  cfg.traffic.burst_fraction = 0.0;

  bench::header("ServeSpine", "Continuous-batching hot path throughput");
  std::printf("replicas %d x %d GPUs, %.0f rps offered, %.0f s simulated\n",
              cfg.replicas, cfg.hw.gpus, rps, seconds);

  sim::Engine engine;
  {
    // Warm-up at full length: grows the engine's slot vector, sorted run and
    // heap to their steady-state high-water marks; reset() keeps capacity.
    serve::ServeFleet warm(engine, cfg, seed);
    warm.start();
    engine.run();
    engine.reset();
  }

  serve::ServeFleet fleet(engine, cfg, seed);
  fleet.start();
  perfbench::AllocCount allocs;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t events = engine.run();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t run_allocs = allocs.count();
  const double wall = std::chrono::duration<double>(t1 - t0).count();

  const serve::FleetReport report = fleet.report();
  const double req_per_s =
      wall > 0 ? static_cast<double>(report.offered) / wall : 0;

  common::Table table({"metric", "value"});
  table.add_row({"requests offered", std::to_string(report.offered)});
  table.add_row({"  completed", std::to_string(report.completed)});
  table.add_row({"  rejected", std::to_string(report.rejected)});
  table.add_row({"batching epochs", std::to_string(report.epochs)});
  table.add_row({"decode steps", std::to_string(report.decode_steps)});
  table.add_row({"engine events", std::to_string(events)});
  table.add_row({"wall seconds", common::Table::num(wall, 3)});
  table.add_row({"simulated requests/s", common::Table::num(req_per_s / 1e6, 2) + "M"});
  table.add_row({"events/s", common::Table::num(
                     wall > 0 ? events / wall / 1e6 : 0, 2) + "M"});
  table.add_row({"run allocations", std::to_string(run_allocs)});
  table.add_row({"mean batch occupancy",
                 common::Table::num(report.mean_batch_occupancy, 1)});
  std::printf("%s", table.render().c_str());
  std::printf("  fleet: %s\n", report.summary().c_str());

  bench::recap("sustained simulated request rate", ">= 1M requests/s",
               common::Table::num(req_per_s / 1e6, 2) + "M requests/s");
  bench::recap("steady-state heap allocations", "0 (pooled hot path)",
               std::to_string(run_allocs));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"results\": {\n"
        << "    \"bench_serve_spine/requests\": { \"items_per_second\": "
        << static_cast<std::uint64_t>(req_per_s) << " }\n  }\n}\n";
    std::printf("[json] results written to %s\n", json_path.c_str());
  }

  // The allocation-freedom contract only holds with observability off (obs
  // sinks buffer trace events on the heap by design).
  if (run_allocs != 0 && !obs::enabled()) {
    std::fprintf(stderr,
                 "bench_serve_spine: %llu heap allocations on the request "
                 "hot path (expected 0)\n",
                 static_cast<unsigned long long>(run_allocs));
    return 1;
  }
  return bench::finish(obs_cli);
}
