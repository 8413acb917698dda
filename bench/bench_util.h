// Shared helpers for the bench harness: every bench regenerates one of the
// paper's tables or figures from the simulated datacenter and prints it in a
// paper-comparable form, ending with a PAPER vs MEASURED recap.
#pragma once

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/acme.h"

namespace acme::bench {

// Shared bench command line. Every bench accepts
//   --trace-out FILE.json    write a Chrome trace of this run (Perfetto)
//   --metrics-out FILE.prom  write the obs registry as Prometheus text
// and the Monte Carlo benches additionally take --replicas / --threads /
// --seed / --json (see mc/report.h). Passing either obs flag switches the
// self-observability layer on for the whole run. Parsing is strict: an
// unknown flag, a missing value or a stray positional prints the reason plus
// usage and exits 2.
struct BenchCli {
  std::string trace_path;
  std::string metrics_path;
  mc::McCli mc;  // only meaningful when parse_cli was given mc defaults
};

inline BenchCli parse_cli(int argc, char** argv, const std::string& bench_name,
                          const mc::ReplicationOptions* mc_defaults = nullptr) {
  BenchCli cli;
  common::FlagSet flags(bench_name);
  flags.add("--trace-out", &cli.trace_path,
            "write a Chrome trace-event JSON of this run (Perfetto-loadable)");
  flags.add("--metrics-out", &cli.metrics_path,
            "write the self-observability metrics as Prometheus text");
  if (mc_defaults != nullptr) {
    cli.mc.options = *mc_defaults;
    mc::add_mc_flags(flags, cli.mc);
  }
  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s: %s\n%s", bench_name.c_str(), error.c_str(),
                 flags.usage().c_str());
    std::exit(2);
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    std::exit(0);
  }
  if (cli.mc.options.replicas == 0) cli.mc.options.replicas = 1;
  if (!cli.trace_path.empty() || !cli.metrics_path.empty())
    obs::set_enabled(true);
  return cli;
}

inline BenchCli parse_cli(int argc, char** argv, const std::string& bench_name,
                          const mc::ReplicationOptions& mc_defaults) {
  return parse_cli(argc, argv, bench_name, &mc_defaults);
}

// End-of-main hook: writes the trace / metrics files the CLI asked for.
// Returns the bench's exit code so mains can `return bench::finish(cli);`.
inline int finish(const BenchCli& cli) {
  if (!cli.trace_path.empty() && obs::tracer().write_json(cli.trace_path)) {
    std::printf("[obs] trace written to %s (%zu events, %zu dropped)\n",
                cli.trace_path.c_str(), obs::tracer().event_count(),
                obs::tracer().dropped());
  }
  if (!cli.metrics_path.empty() &&
      obs::metrics().write_prometheus(cli.metrics_path)) {
    std::printf("[obs] metrics written to %s (%zu series)\n",
                cli.metrics_path.c_str(), obs::metrics().size());
  }
  return 0;
}

inline void header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

// PAPER vs MEASURED recap line. `ci95` is optional: multi-seed benches pass
// a formatted half-width (e.g. "±12.3 s") and get an extra column; single-seed
// benches keep the exact historical layout.
inline void recap(const std::string& what, const std::string& paper,
                  const std::string& measured, const std::string& ci95 = "") {
  if (ci95.empty()) {
    std::printf("  [recap] %-46s paper: %-18s measured: %s\n", what.c_str(),
                paper.c_str(), measured.c_str());
  } else {
    std::printf("  [recap] %-46s paper: %-18s measured: %-18s ci95: %s\n",
                what.c_str(), paper.c_str(), measured.c_str(), ci95.c_str());
  }
}

// Replica CPU below which a speedup figure measures thread start-up rather
// than the replicas, so the footer prints "n/a" instead.
inline constexpr double kMinSpeedupSerialSeconds = 0.1;

// Prints the replication run footer every converted bench shares and, when
// the CLI asked for it, writes the JSON report.
inline void mc_footer(const mc::BenchReport& report, const mc::McCli& cli) {
  const auto& t = report.timing();
  char speedup[32];
  if (t.serial_seconds < kMinSpeedupSerialSeconds)
    std::snprintf(speedup, sizeof speedup, "n/a");
  else
    std::snprintf(speedup, sizeof speedup, "%.2fx", t.speedup());
  std::printf(
      "\n[mc] %zu replicas on %zu threads: wall %.2f s, "
      "serial-equivalent %.2f s, speedup %s\n",
      cli.options.replicas, t.threads_used, t.wall_seconds, t.serial_seconds,
      speedup);
  if (!cli.json_path.empty() && report.write(cli.json_path))
    std::printf("[mc] report written to %s\n", cli.json_path.c_str());
}

// CDF curve of a sample set over log-spaced x points.
inline common::Series cdf_series(const std::string& name,
                                 const common::SampleStats& stats, double lo,
                                 double hi, std::size_t points = 64) {
  common::Series s;
  s.name = name;
  s.xs = common::log_space(lo, hi, points);
  s.ys = stats.cdf_curve(s.xs);
  return s;
}

inline common::Series cdf_series_linear(const std::string& name,
                                        const common::SampleStats& stats,
                                        double lo, double hi,
                                        std::size_t points = 64) {
  common::Series s;
  s.name = name;
  s.xs = common::lin_space(lo, hi, points);
  s.ys = stats.cdf_curve(s.xs);
  return s;
}

// Snapshot / fast-forward flags for the world benches (DESIGN.md §12):
//   --snapshot-at T      pause the canonical single run at simulated time T
//                        seconds, save the world, then run on to the end
//   --snapshot-out FILE  where --snapshot-at writes the snapshot
//   --restore FILE       skip the warm-up entirely: restore FILE (the
//                        scenario comes from the snapshot itself) and run
//                        the remaining timeline to completion
struct SnapshotCli {
  double snapshot_at = -1.0;
  std::string snapshot_out;
  std::string restore_path;

  bool saving() const { return snapshot_at >= 0 || !snapshot_out.empty(); }
  bool restoring() const { return !restore_path.empty(); }
};

inline void add_snapshot_flags(common::FlagSet& flags, SnapshotCli& cli) {
  flags.add("--snapshot-at", &cli.snapshot_at,
            "save the single-run world at this simulated time (seconds)");
  flags.add("--snapshot-out", &cli.snapshot_out,
            "file the --snapshot-at snapshot is written to");
  flags.add("--restore", &cli.restore_path,
            "restore a world snapshot file and run it to completion");
}

// Returns a non-empty reason when the snapshot flag combination is invalid.
inline std::string snapshot_cli_error(const SnapshotCli& cli) {
  if (cli.saving() && (cli.snapshot_at < 0 || cli.snapshot_out.empty()))
    return "--snapshot-at and --snapshot-out must be given together";
  if (cli.saving() && cli.restoring())
    return "--restore cannot be combined with --snapshot-at/--snapshot-out";
  return "";
}

// The canonical single run, honoring the snapshot flags: plain run_world
// when neither side is active, save-at-T-then-continue for --snapshot-at,
// restore-then-finish for --restore. The returned report is byte-identical
// to the uninterrupted run in all three modes (test_determinism pins this).
inline world::WorldReport run_world_snapshot_aware(
    const world::ScenarioSpec& spec, const SnapshotCli& cli) {
  const auto drain = [](world::World& w) {
    w.run_until(std::numeric_limits<double>::infinity());
    return w.finish();
  };
  if (cli.restoring()) {
    world::World w(spec);
    w.restore_file(cli.restore_path);
    std::printf("[snap] restored %s; resuming to completion\n",
                cli.restore_path.c_str());
    return drain(w);
  }
  if (cli.saving()) {
    world::World w(spec);
    w.run_until(cli.snapshot_at);
    w.save_file(cli.snapshot_out);
    std::printf("[snap] world saved to %s at t=%.0f s; continuing\n",
                cli.snapshot_out.c_str(), cli.snapshot_at);
    return drain(w);
  }
  return world::run_world(spec);
}

// The six-month replays shared by the characterization benches: the world
// scenario presets (Seren 1/8 job scale, Kalos full) run failure-free. Fleet
// telemetry is off; the benches that need it sample their own through
// world::fleet_sampler_config.
inline world::ScenarioSpec replay_scenario(world::ScenarioSpec spec) {
  spec.inject_failures = false;
  spec.fleet_samples = 0;
  return spec;
}

inline const world::WorldReport& seren_replay() {
  static const world::WorldReport replay =
      world::run_world(replay_scenario(world::seren_scenario()));
  return replay;
}

inline const world::WorldReport& kalos_replay() {
  static const world::WorldReport replay =
      world::run_world(replay_scenario(world::kalos_scenario()));
  return replay;
}

// The serve-only Seren preset shared by the serve benches and
// `bench_world_endtoend --scenario serve-seren`, and the serve::ServeConfig
// it resolves to (one mapping, world::serve_config, for benches, tests and
// the world driver alike).
inline const world::ScenarioSpec& serve_seren_scenario() {
  static const world::ScenarioSpec spec = world::serve_seren_scenario();
  return spec;
}

inline serve::ServeConfig serve_seren_config() {
  return world::serve_config(serve_seren_scenario());
}

}  // namespace acme::bench
