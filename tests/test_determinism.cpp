// Golden determinism: with self-observability enabled, the metric registry
// snapshot is a pure function of the simulated work — byte-identical across
// repeated runs with the same seed AND across mc worker-pool thread counts.
// This is the contract that keeps --metrics-out diffable between runs: all
// metric values are integer-atomic or fixed-point, and wall-clock readings
// go only to the tracer, never to metrics.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/digest.h"
#include "core/acme.h"
#include "snap/format.h"

namespace acme {
namespace {

struct Snapshot {
  std::string prom;
  std::uint64_t digest;
};

// Runs the (downscaled) failure-free Seren six-month replay through
// run_world_mc with obs enabled and returns the registry bytes. Resets obs state afterwards so
// tests can call it repeatedly.
Snapshot replay_snapshot(std::size_t threads) {
  obs::reset();
  obs::set_enabled(true);
  mc::ReplicationOptions options;
  options.replicas = 4;
  options.threads = threads;
  options.seed = 20240;
  world::ScenarioSpec spec = world::seren_scenario();
  spec.scale = 40.0;
  spec.inject_failures = false;
  spec.fleet_samples = 0;
  const auto run = world::run_world_mc(spec, options);
  EXPECT_EQ(run.results.size(), 4u);
  Snapshot snap;
  snap.prom = obs::metrics().prometheus_text();
  snap.digest = common::fnv1a(snap.prom);
  obs::set_enabled(false);
  obs::reset();
  return snap;
}

TEST(Determinism, RepeatedReplaySnapshotsAreByteIdentical) {
  const Snapshot a = replay_snapshot(1);
  const Snapshot b = replay_snapshot(1);
  EXPECT_EQ(a.digest, b.digest) << "FNV-1a digests differ:\n"
                                << common::fnv1a_hex(a.digest) << " vs "
                                << common::fnv1a_hex(b.digest);
  EXPECT_EQ(a.prom, b.prom);
  EXPECT_FALSE(a.prom.empty());
}

TEST(Determinism, SnapshotIsIndependentOfMcThreadCount) {
  const Snapshot serial = replay_snapshot(1);
  const Snapshot pooled = replay_snapshot(4);
  EXPECT_EQ(serial.prom, pooled.prom)
      << "registry bytes depend on worker-pool width";
  EXPECT_EQ(serial.digest, pooled.digest);
}

// Same contract for the integrated world: a scenario run — trace synthesis,
// shared-engine replay, live failure injection, recovery pricing, fleet
// sampling — leaves byte-identical registry bytes across repeats and across
// mc worker-pool widths.
Snapshot world_snapshot(std::size_t threads) {
  obs::reset();
  obs::set_enabled(true);
  world::ScenarioSpec spec = world::seren_scenario();
  spec.scale = 40.0;
  spec.fleet_samples = 2000;
  mc::ReplicationOptions options;
  options.replicas = 4;
  options.threads = threads;
  options.seed = 20241;
  const auto run = world::run_world_mc(spec, options);
  EXPECT_EQ(run.results.size(), 4u);
  for (const auto& report : run.results) EXPECT_GT(report.failures_injected, 0);
  Snapshot snap;
  snap.prom = obs::metrics().prometheus_text();
  snap.digest = common::fnv1a(snap.prom);
  obs::set_enabled(false);
  obs::reset();
  return snap;
}

TEST(Determinism, WorldRunsAreByteIdenticalAcrossRepeatsAndThreads) {
  const Snapshot a = world_snapshot(1);
  const Snapshot b = world_snapshot(1);
  const Snapshot pooled = world_snapshot(4);
  EXPECT_EQ(a.prom, b.prom);
  EXPECT_EQ(a.prom, pooled.prom)
      << "world registry bytes depend on worker-pool width";
  EXPECT_EQ(a.digest, pooled.digest);
  // The failure chain actually exercised the injection counters.
  EXPECT_NE(a.prom.find("acme_world_failures_total"), std::string::npos);
  EXPECT_NE(a.prom.find("acme_sched_failure_kills_total"), std::string::npos);
}

// And for the serving world: a co-located scenario (serve fleet + pretrain
// replay + failure routing on one spine) must leave byte-identical registry
// bytes AND a byte-identical FleetReport digest across repeats, seeds only
// changing both together, and mc pool widths changing neither.
struct ServeSnapshot {
  Snapshot obs;
  std::uint64_t fleet_digest = 0;
};

ServeSnapshot serve_snapshot(std::size_t threads, std::uint64_t seed) {
  obs::reset();
  obs::set_enabled(true);
  world::ScenarioSpec spec = world::colocated_seren_scenario();
  spec.scale = 40.0;
  spec.fleet_samples = 500;
  spec.serve_replicas = 2;
  spec.serve_rps = 20.0;
  spec.serve_duration_seconds = 900.0;
  mc::ReplicationOptions options;
  options.replicas = 4;
  options.threads = threads;
  options.seed = seed;
  const auto run = world::run_world_mc(spec, options);
  EXPECT_EQ(run.results.size(), 4u);
  ServeSnapshot snap;
  for (const auto& report : run.results) {
    EXPECT_TRUE(report.served);
    EXPECT_GT(report.serve.offered, 0u);
    // Fold replica digests so any divergence in any replica shows up.
    snap.fleet_digest ^= report.serve.digest();
  }
  snap.obs.prom = obs::metrics().prometheus_text();
  snap.obs.digest = common::fnv1a(snap.obs.prom);
  obs::set_enabled(false);
  obs::reset();
  return snap;
}

TEST(Determinism, ServeWorldIsByteIdenticalAcrossRepeatsAndThreads) {
  const ServeSnapshot a = serve_snapshot(1, 20242);
  const ServeSnapshot b = serve_snapshot(1, 20242);
  const ServeSnapshot pooled = serve_snapshot(4, 20242);
  const ServeSnapshot reseeded = serve_snapshot(1, 20243);
  EXPECT_EQ(a.obs.prom, b.obs.prom);
  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  EXPECT_EQ(a.obs.prom, pooled.obs.prom)
      << "serve registry bytes depend on worker-pool width";
  EXPECT_EQ(a.fleet_digest, pooled.fleet_digest);
  EXPECT_NE(a.fleet_digest, reseeded.fleet_digest);
  EXPECT_NE(a.obs.digest, reseeded.obs.digest);
  // The serve instrumentation actually fired.
  EXPECT_NE(a.obs.prom.find("acme_serve_requests_offered_total"),
            std::string::npos);
  EXPECT_NE(a.obs.prom.find("acme_serve_epochs_total"), std::string::npos);
}

// --- Snapshot determinism oracle (DESIGN.md §12) ---
//
// Saving a world at a mid-run quiescent point, restoring into a fresh World
// and running to completion must produce a WorldReport digest byte-identical
// to the uninterrupted run; and the XOR-fold of per-replica digests from
// run_world_mc must match at 1 and 4 pool threads AND match replicas driven
// manually through the save/restore path (which also pins the replica seed
// derivation: Rng(seed).fork("replica-<i>").next()).

std::uint64_t interrupted_digest(const world::ScenarioSpec& spec, double mid) {
  world::World a(spec);
  a.run_until(mid);
  snap::SnapshotWriter w;
  a.save(w);
  const std::string bytes = w.finish();
  snap::SnapshotReader r(bytes);
  world::World b(spec);
  b.restore(r);
  // Restore-time choices (which pool record a live job lands in) never
  // reach the bytes: the restored world saves exactly what it was read from.
  snap::SnapshotWriter again;
  b.save(again);
  EXPECT_EQ(again.finish(), bytes)
      << spec.name << ": save -> restore -> save is not byte-equal";
  b.run_until(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(b.done());
  return b.finish().digest();
}

std::uint64_t mc_digest_fold(const world::ScenarioSpec& spec,
                             std::uint64_t seed, std::size_t threads) {
  mc::ReplicationOptions options;
  options.replicas = 2;
  options.threads = threads;
  options.seed = seed;
  const auto run = world::run_world_mc(spec, options);
  std::uint64_t fold = 0;
  for (const auto& report : run.results) fold ^= report.digest();
  return fold;
}

void expect_snapshot_oracle(const world::ScenarioSpec& spec,
                            std::uint64_t seed) {
  const std::uint64_t serial = mc_digest_fold(spec, seed, 1);
  const std::uint64_t pooled = mc_digest_fold(spec, seed, 4);
  EXPECT_EQ(serial, pooled) << spec.name
                            << ": digests depend on worker-pool width";

  const common::Rng root(seed);
  std::uint64_t fold = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    common::Rng rng = root.fork("replica-" + std::to_string(i));
    world::ScenarioSpec replica_spec = spec;
    replica_spec.seed = rng.next();
    const world::WorldReport straight = world::World(replica_spec).run();
    const std::uint64_t straight_digest = straight.digest();
    // Midpoint of whatever timeline this scenario actually has.
    double mid = straight.replay.makespan * 0.5;
    if (spec.serving()) mid = std::max(mid, spec.serve_duration_seconds * 0.5);
    const std::uint64_t resumed = interrupted_digest(replica_spec, mid);
    EXPECT_EQ(straight_digest, resumed)
        << spec.name << " replica " << i
        << ": snapshot-at-midpoint diverged from the uninterrupted run";
    fold ^= resumed;
  }
  EXPECT_EQ(fold, serial)
      << spec.name << ": manual replica derivation diverged from run_world_mc";
}

TEST(Determinism, SnapshotOracleSeren) {
  world::ScenarioSpec spec = world::seren_scenario();
  spec.scale = 40.0;
  spec.fleet_samples = 500;
  expect_snapshot_oracle(spec, 20244);
}

TEST(Determinism, SnapshotOracleKalos) {
  world::ScenarioSpec spec = world::kalos_scenario();
  spec.scale = 40.0;
  spec.fleet_samples = 500;
  expect_snapshot_oracle(spec, 20248);
}

TEST(Determinism, SnapshotOracleColocatedSeren) {
  world::ScenarioSpec spec = world::colocated_seren_scenario();
  spec.scale = 40.0;
  spec.fleet_samples = 500;
  spec.serve_replicas = 2;
  spec.serve_rps = 20.0;
  spec.serve_duration_seconds = 900.0;
  expect_snapshot_oracle(spec, 20245);
}

TEST(Determinism, SnapshotOracleServeSeren) {
  world::ScenarioSpec spec = world::serve_seren_scenario();
  spec.serve_rps = 20.0;
  spec.serve_duration_seconds = 900.0;
  expect_snapshot_oracle(spec, 20246);
}

// Hyperscale preset: the domain-outage chain (cordons, correlated kills,
// repair re-arm) and the tiered fabric must survive snapshot-at-midpoint and
// any worker width exactly like the flat presets.
TEST(Determinism, SnapshotOracleHyperscaleSmall) {
  world::ScenarioSpec spec = world::hyperscale_small_scenario();
  spec.fleet_samples = 500;
  expect_snapshot_oracle(spec, 20247);
}

TEST(Determinism, SnapshotReflectsSimulatedWork) {
  const Snapshot snap = replay_snapshot(2);
  // The instrumented subsystems must actually have fired during the replay.
  EXPECT_NE(snap.prom.find("acme_sim_events_fired_total"), std::string::npos);
  EXPECT_NE(snap.prom.find("acme_sched_placements_total"), std::string::npos);
  EXPECT_NE(snap.prom.find("acme_mc_replicas_total"), std::string::npos);
  // And the bytes must round-trip through the Prometheus parser.
  std::string error;
  const auto samples = obs::parse_prometheus(snap.prom, &error);
  ASSERT_TRUE(samples.has_value()) << error;
  EXPECT_FALSE(samples->empty());
}

}  // namespace
}  // namespace acme
