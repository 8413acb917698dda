// Snapshot overhead: what save+restore costs against the run it freezes.
//
// The snapshot subsystem only earns its keep if pausing a world is cheap
// relative to simulating it: the fast-forward workflow (save once, branch N
// futures) assumes save+restore is noise next to the replay. The yardstick
// is the repo's canonical seren end-to-end benchmark workload — the same
// `--replicas 4 --threads 1` Monte Carlo set bench_world_endtoend has
// reported as "seren end-to-end" since BENCH_5.json — timed here by the
// same binary that times the round-trip, so the gate compares numbers from
// one process on one machine. Each repetition also replays the
// interrupted-at-midpoint world to completion and asserts digest equality
// with the uninterrupted run, so a perf win that breaks determinism can't
// sneak through. One untimed warm-up round-trip precedes the measured reps
// (allocator pages and CRC tables are process-lifetime state; see the
// BENCH_6.json note on cold first runs).
//
// The gated save is the one World::save_file takes: a fresh SnapshotWriter
// that grows its own multi-MB buffer. After the gated reps, the bench saves
// one midpoint world repeatedly into a single reused buffer (a
// SnapshotWriter that adopts a caller-owned string) and reports that cost
// beside it, ungated; it runs last so the held buffer cannot change what
// the allocator hands the gated saves. The bench prints getrusage minor
// page faults per save on both paths and per restore.
//
// Gates (exit 1 past either):
//   * median save+restore < 7% of the median end-to-end workload wall time.
//     The budget was 5% when fleet telemetry cost ~1/3 of a seren replica;
//     the ziggurat monitor noise cut the yardstick by ~28%, and 7% of the
//     new yardstick is the same absolute save+restore budget.
//   * allocation freedom: the shared operator-new hook (alloc_hook.h)
//     brackets one restored world's drain, with occupancy sampling off;
//     any heap allocation inside it fails the bench.
//
// Flags: --scenario NAME --scale S --reps N --replicas R --json out.json
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/alloc_hook.h"
#include "bench_util.h"
#include "mc/replication.h"
#include "snap/format.h"

using namespace acme;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

constexpr double kForever = std::numeric_limits<double>::infinity();
constexpr double kMaxOverheadRatio = 0.07;

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

struct RoundTrip {
  double seconds = 0;  // inside save/finish/restore only
  std::size_t bytes = 0;
  long save_faults = 0;
  long restore_faults = 0;
};

// One save + restore at the straight run's midpoint. Only save/finish/
// restore is timed: the simulated work on either side is the same replay
// either way. Leaves the resumed world in `resumed` for the digest check.
RoundTrip snapshot_roundtrip(const world::ScenarioSpec& spec, double mid,
                             world::World& resumed) {
  world::World a(spec);
  a.run_until(mid);
  RoundTrip out;
  long faults = minor_faults();
  auto t0 = std::chrono::steady_clock::now();
  snap::SnapshotWriter w;
  a.save(w);
  std::string bytes = w.finish();
  out.seconds = seconds_since(t0);
  out.save_faults = minor_faults() - faults;
  out.bytes = bytes.size();
  faults = minor_faults();
  t0 = std::chrono::steady_clock::now();
  snap::SnapshotReader r(std::move(bytes));
  resumed.restore(r);
  out.seconds += seconds_since(t0);
  out.restore_faults = minor_faults() - faults;
  return out;
}

// Saves one midpoint world `reps` times into a single buffer that each
// writer adopts and finish() hands back. The buffer starts as a copy of a
// fresh writer's bytes, which every reused save must reproduce. Returns the
// median seconds and minor faults per save.
std::pair<double, double> reused_buffer_saves(const world::ScenarioSpec& spec,
                                              double mid, std::uint64_t reps) {
  world::World a(spec);
  a.run_until(mid);
  snap::SnapshotWriter first;
  a.save(first);
  const std::string fresh = first.finish();
  std::string buffer = fresh;
  std::vector<double> walls, faults;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const long faults0 = minor_faults();
    const auto t0 = std::chrono::steady_clock::now();
    snap::SnapshotWriter w(std::move(buffer));
    a.save(w);
    buffer = w.finish();
    walls.push_back(seconds_since(t0));
    faults.push_back(static_cast<double>(minor_faults() - faults0));
    ACME_CHECK_MSG(buffer == fresh,
                   "a save into a reused buffer wrote different bytes");
  }
  return {median(walls), median(faults)};
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "seren";
  double scale = 0;  // 0 = the preset's own scale
  std::uint64_t reps = 3;
  std::uint64_t replicas = 4;
  std::string json_path;

  common::FlagSet flags("bench_snapshot");
  flags.add("--scenario", &scenario, "registered scenario to replay");
  flags.add("--scale", &scale, "override the preset's trace scale (0 = keep)");
  flags.add("--reps", &reps, "repetitions; the median is reported");
  flags.add("--replicas", &replicas,
            "MC replicas in the end-to-end yardstick workload (the "
            "bench_world_endtoend canonical row uses 4)");
  flags.add("--json", &json_path,
            "write a BENCH-format results JSON for tools/bench_compare.py");
  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::fprintf(stderr, "bench_snapshot: %s\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  if (reps == 0) reps = 1;
  if (replicas == 0) replicas = 1;
  const auto preset = world::find_scenario(scenario);
  if (!preset) {
    std::fprintf(stderr, "bench_snapshot: unknown scenario \"%s\"\n",
                 scenario.c_str());
    return 2;
  }
  world::ScenarioSpec spec = *preset;
  if (scale > 0) spec.scale = scale;

  mc::ReplicationOptions mc_options;
  mc_options.replicas = static_cast<std::size_t>(replicas);
  mc_options.threads = 1;
  mc_options.stream_label = "world";

  bench::header("Snapshot", "World save/restore overhead vs the replay");
  std::printf("scenario %s, scale %.3g, %llu repetitions, %llu-replica "
              "end-to-end yardstick\n",
              spec.name.c_str(), spec.scale,
              static_cast<unsigned long long>(reps),
              static_cast<unsigned long long>(replicas));

  // Reference run: oracle digest + the midpoint every round-trip freezes at.
  const world::WorldReport straight = world::run_world(spec);
  const double mid = straight.replay.makespan * 0.5;

  // Warm-up round-trip, untimed (first-touch pages, CRC dispatch, malloc
  // arena growth are process-lifetime costs the steady state never repays).
  {
    world::World warm(spec);
    snapshot_roundtrip(spec, mid, warm);
  }

  std::vector<double> endtoend_walls, roundtrip_walls, save_faults,
      restore_faults;
  std::size_t snapshot_bytes = 0;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    world::run_world_mc(spec, mc_options);
    endtoend_walls.push_back(seconds_since(t0));

    world::World resumed(spec);
    const RoundTrip trip = snapshot_roundtrip(spec, mid, resumed);
    roundtrip_walls.push_back(trip.seconds);
    save_faults.push_back(static_cast<double>(trip.save_faults));
    restore_faults.push_back(static_cast<double>(trip.restore_faults));
    snapshot_bytes = trip.bytes;
    resumed.run_until(kForever);
    if (resumed.finish().digest() != straight.digest()) {
      std::fprintf(stderr,
                   "bench_snapshot: digest divergence on rep %llu — the "
                   "snapshot path is not byte-identical\n",
                   static_cast<unsigned long long>(rep));
      return 1;
    }
  }

  // Allocation gate: a restored drain must be as allocation-free as a fresh
  // one (restore re-reserves the engine, the record pool and the
  // kill-routing scratch). The occupancy timeline grows with the makespan,
  // so sampling is off for the bracket, as in bench_hyperscale; sampling
  // reads state and never changes the replay.
  std::uint64_t restored_drain_allocs = 0;
  {
    world::ScenarioSpec gated = spec;
    gated.sample_interval_seconds = 0;
    gated.fleet_samples = 0;
    world::World resumed(gated);
    snapshot_roundtrip(gated, mid, resumed);
    perfbench::AllocCount allocs;
    resumed.run_until(kForever);
    restored_drain_allocs = allocs.count();
  }

  const auto [reused_save_s, reused_save_faults] =
      reused_buffer_saves(spec, mid, reps);

  const double endtoend_s = median(endtoend_walls);
  const double roundtrip_s = median(roundtrip_walls);
  const double ratio = endtoend_s > 0 ? roundtrip_s / endtoend_s : 0;

  common::Table table({"metric", "value"});
  table.add_row({"end-to-end workload (median)",
                 common::Table::num(endtoend_s * 1e3, 1) + " ms"});
  table.add_row({"save+restore (median)",
                 common::Table::num(roundtrip_s * 1e3, 2) + " ms"});
  table.add_row({"save into a reused buffer (median)",
                 common::Table::num(reused_save_s * 1e3, 2) +
                     " ms"});
  table.add_row({"snapshot size",
                 common::Table::num(snapshot_bytes / 1024.0, 1) + " KiB"});
  table.add_row({"minor faults per save (median)",
                 common::Table::num(median(save_faults), 0)});
  table.add_row({"minor faults per reused-buffer save (median)",
                 common::Table::num(reused_save_faults, 0)});
  table.add_row({"minor faults per restore (median)",
                 common::Table::num(median(restore_faults), 0)});
  table.add_row({"overhead ratio", common::Table::pct(ratio)});
  std::printf("%s", table.render().c_str());
  bench::recap("snapshot round-trip overhead",
               "< " + common::Table::pct(kMaxOverheadRatio, 0) +
                   " of the seren end-to-end workload",
               common::Table::pct(ratio));
  std::printf("  digests: straight == save/restore/resume on all %llu reps\n",
              static_cast<unsigned long long>(reps));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"results\": {\n"
        << "    \"BM_SnapshotRoundTrip\": { \"seconds\": " << roundtrip_s
        << " },\n"
        << "    \"BM_SnapshotRoundTrip/seren_endtoend\": { \"seconds\": "
        << endtoend_s << " }\n  }\n}\n";
    std::printf("[json] results written to %s\n", json_path.c_str());
  }

  bool ok = true;
  if (restored_drain_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: the restored world's drain made %llu heap "
                 "allocations (expected 0)\n",
                 static_cast<unsigned long long>(restored_drain_allocs));
    ok = false;
  }
  if (ratio >= kMaxOverheadRatio) {
    std::fprintf(stderr,
                 "bench_snapshot: save+restore is %.1f%% of the end-to-end "
                 "workload (gate: < %.0f%%)\n",
                 ratio * 100, kMaxOverheadRatio * 100);
    ok = false;
  }
  return ok ? 0 : 1;
}
