#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "common/stats.h"
#include "mc/aggregate.h"
#include "mc/replication.h"
#include "mc/report.h"
#include "world/world.h"

namespace acme::mc {
namespace {

// ------------------------------------------------------------- metrics

TEST(MetricAggregator, QuantilesAreExactOrderStatistics) {
  MetricAggregator agg;
  EXPECT_DOUBLE_EQ(agg.p50(), 0.0);  // no values yet
  // 101 values 0..100 in scrambled order: linear interpolation between
  // order statistics puts p50/p90/p99 exactly on 50/90/99.
  for (int i = 0; i <= 100; ++i) agg.add(static_cast<double>((i * 37) % 101));
  EXPECT_DOUBLE_EQ(agg.p50(), 50.0);
  EXPECT_DOUBLE_EQ(agg.p90(), 90.0);
  EXPECT_DOUBLE_EQ(agg.p99(), 99.0);
  MetricAggregator small;
  for (double v : {3.0, 1.0, 2.0, 10.0}) small.add(v);
  EXPECT_DOUBLE_EQ(small.p50(), 2.5);
  EXPECT_NEAR(small.p99(), 3.0 + 0.97 * 7.0, 1e-12);  // between 3 and 10
}

TEST(MetricAggregator, MeanAndCi) {
  MetricAggregator agg;
  for (double v : {10.0, 12.0, 11.0, 13.0}) agg.add(v);
  EXPECT_EQ(agg.count(), 4u);
  EXPECT_DOUBLE_EQ(agg.mean(), 11.5);
  // t(3) * s/sqrt(4) with s = sqrt(5/3).
  const double s = std::sqrt(5.0 / 3.0);
  EXPECT_NEAR(agg.ci95(), 3.182 * s / 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(agg.min(), 10.0);
  EXPECT_DOUBLE_EQ(agg.max(), 13.0);
}

TEST(MetricAggregator, CiZeroBeforeTwoSamples) {
  MetricAggregator agg;
  EXPECT_DOUBLE_EQ(agg.ci95(), 0.0);
  agg.add(5.0);
  EXPECT_DOUBLE_EQ(agg.ci95(), 0.0);
}

// ------------------------------------------------------------- Replication

// The determinism proof demanded by the issue: the same plan run with one
// thread and with >= 4 threads yields bit-identical per-replica results and
// identical merged aggregates.
TEST(ReplicationPlan, BitIdenticalAcrossThreadCounts) {
  const auto body = [](common::Rng& rng, std::size_t replica) {
    // A result that depends on every draw, so any stream perturbation shows.
    double acc = static_cast<double>(replica);
    for (int i = 0; i < 1000; ++i) acc += rng.uniform() * rng.normal();
    return acc;
  };
  ReplicationOptions serial;
  serial.replicas = 16;
  serial.threads = 1;
  serial.seed = 1234;
  ReplicationOptions parallel = serial;
  parallel.threads = 4;
  ReplicationOptions uneven = serial;  // 5 threads do not divide 16 replicas
  uneven.threads = 5;

  const auto a = run_replicas<double>(serial, body);
  const auto b = run_replicas<double>(parallel, body);
  const auto c = run_replicas<double>(uneven, body);
  ASSERT_EQ(a.results.size(), 16u);
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i], b.results[i]) << "replica " << i;
    EXPECT_EQ(a.results[i], c.results[i]) << "replica " << i;
  }

  MetricAggregator ma, mb;
  fold_metric(a, [](double v) { return v; }, ma);
  fold_metric(b, [](double v) { return v; }, mb);
  EXPECT_EQ(ma.mean(), mb.mean());
  EXPECT_EQ(ma.ci95(), mb.ci95());
  EXPECT_EQ(ma.p50(), mb.p50());
  EXPECT_EQ(ma.p99(), mb.p99());
}

TEST(ReplicationPlan, ReplicaStreamsAreIndependentOfReplicaCount) {
  const auto body = [](common::Rng& rng, std::size_t) { return rng.next(); };
  ReplicationOptions small;
  small.replicas = 4;
  small.threads = 1;
  ReplicationOptions big = small;
  big.replicas = 12;
  const auto a = run_replicas<std::uint64_t>(small, body);
  const auto b = run_replicas<std::uint64_t>(big, body);
  for (std::size_t i = 0; i < a.results.size(); ++i)
    EXPECT_EQ(a.results[i], b.results[i]);
  // And the streams differ between replicas.
  std::set<std::uint64_t> distinct(b.results.begin(), b.results.end());
  EXPECT_EQ(distinct.size(), b.results.size());
}

TEST(ReplicationPlan, TimingAccountsEveryReplica) {
  ReplicationOptions options;
  options.replicas = 6;
  options.threads = 2;
  const auto run = run_replicas<int>(options, [](common::Rng& rng, std::size_t i) {
    // Compute-bound body: replica cost is measured in thread-CPU time, so a
    // sleeping replica would legitimately report ~0 seconds.
    double acc = 0;
    for (int k = 0; k < 200000; ++k) acc += rng.uniform();
    return static_cast<int>(i) + (acc > 0 ? 0 : 1);
  });
  EXPECT_EQ(run.replica_seconds.size(), 6u);
  for (double s : run.replica_seconds) EXPECT_GT(s, 0.0);
  EXPECT_GT(run.timing.serial_seconds, 0.0);
  EXPECT_GT(run.timing.wall_seconds, 0.0);
  EXPECT_EQ(run.timing.threads_used, 2u);
  EXPECT_GT(run.timing.speedup(), 0.0);
}

// A throwing replica surfaces from run() on the calling thread, whether the
// replicas run inline or on task::parallel_for's threads.
TEST(ReplicationPlan, ReplicaExceptionPropagatesFromRun) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ReplicationOptions options;
    options.replicas = 8;
    options.threads = threads;
    const auto body = [](common::Rng&, std::size_t i) -> int {
      if (i == 5) throw std::runtime_error("replica 5 failed");
      return static_cast<int>(i);
    };
    EXPECT_THROW(run_replicas<int>(options, body), std::runtime_error)
        << "threads=" << threads;
  }
}

// With several failing replicas, run() rethrows the lowest one's exception
// at every thread count, exactly as the serial loop does. Replica 2 fails
// late, so on threads replica 5 is usually the first to throw.
TEST(ReplicationPlan, LowestFailingReplicaWinsAtAnyThreadCount) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ReplicationOptions options;
    options.replicas = 8;
    options.threads = threads;
    const auto body = [](common::Rng&, std::size_t i) -> int {
      if (i == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("replica 2 failed");
      }
      if (i == 5) throw std::runtime_error("replica 5 failed");
      return static_cast<int>(i);
    };
    try {
      run_replicas<int>(options, body);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "replica 2 failed") << "threads=" << threads;
    }
  }
}

TEST(ReplicationPlan, SixMonthReplayMcIsDeterministic) {
  // Heavy downscale: distributions unchanged, runtime trivial.
  world::ScenarioSpec spec = world::seren_scenario();
  spec.scale = 64.0;
  spec.inject_failures = false;
  spec.fleet_samples = 0;
  mc::ReplicationOptions serial;
  serial.replicas = 2;
  serial.threads = 1;
  mc::ReplicationOptions parallel = serial;
  parallel.threads = 4;
  const auto a = world::run_world_mc(spec, serial);
  const auto b = world::run_world_mc(spec, parallel);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].busy_fraction, b.results[i].busy_fraction);
    EXPECT_EQ(a.results[i].replay.jobs.size(), b.results[i].replay.jobs.size());
    EXPECT_EQ(a.results[i].replay.makespan, b.results[i].replay.makespan);
  }
  // Replicas saw different traces (independent seeds).
  EXPECT_NE(a.results[0].replay.makespan, a.results[1].replay.makespan);
}

// ------------------------------------------------------------------ Report

TEST(BenchReport, JsonContainsEveryField) {
  MetricAggregator agg;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) agg.add(v);
  BenchReport report("unit_test_bench");
  RunTiming timing;
  timing.wall_seconds = 2.0;
  timing.serial_seconds = 6.0;
  timing.threads_used = 4;
  report.set_timing(timing, 6);
  report.add_metric("latency", agg, "s");

  const std::string json = report.to_json();
  for (const char* key :
       {"\"bench\": \"unit_test_bench\"", "\"replicas\": 6", "\"threads\": 4",
        "\"wall_seconds\": 2", "\"serial_seconds\": 6", "\"speedup\": 3",
        "\"metric\": \"latency\"", "\"unit\": \"s\"", "\"mean\": 3.5",
        "\"ci95\":", "\"p50\":", "\"p90\":", "\"p99\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
}

TEST(BenchReport, NonFiniteValuesBecomeNull) {
  MetricAggregator agg;
  BenchReport report("nonfinite_bench");
  RunTiming timing;
  timing.wall_seconds = 0.0;  // speedup() falls back to 1.0
  report.set_timing(timing, 0);
  report.add_metric("empty", agg);
  const std::string json = report.to_json();
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(BenchReport, WriteRoundTrips) {
  MetricAggregator agg;
  agg.add(1.0);
  agg.add(2.0);
  BenchReport report("file_bench");
  report.add_metric("m", agg);
  const std::string path = ::testing::TempDir() + "acme_mc_report_test.json";
  ASSERT_TRUE(report.write(path));
  std::ifstream f(path);
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), report.to_json());
  std::remove(path.c_str());
}

TEST(BenchReport, WriteToBadPathFailsGracefully) {
  BenchReport report("bad_path");
  EXPECT_FALSE(report.write("/nonexistent-dir-xyz/report.json"));
}

// --------------------------------------------------------------------- CLI

TEST(McCli, ParsesAllFlags) {
  ReplicationOptions defaults;
  defaults.replicas = 8;
  const char* argv[] = {"bench",   "--replicas", "12",   "--threads", "3",
                        "--seed",  "99",         "--json", "out.json"};
  const auto cli = parse_mc_cli_strict(9, const_cast<char**>(argv), defaults);
  ASSERT_TRUE(cli.has_value());
  EXPECT_EQ(cli->options.replicas, 12u);
  EXPECT_EQ(cli->options.threads, 3u);
  EXPECT_EQ(cli->options.seed, 99u);
  EXPECT_EQ(cli->json_path, "out.json");
}

TEST(McCli, RejectsUnknownFlagWithSuggestion) {
  ReplicationOptions defaults;
  // The typo that motivated strict parsing: --replica silently did nothing.
  const char* argv[] = {"bench", "--replica", "12"};
  std::string error;
  const auto cli = parse_mc_cli_strict(3, const_cast<char**>(argv), defaults, &error);
  EXPECT_FALSE(cli.has_value());
  EXPECT_NE(error.find("--replica"), std::string::npos);
  EXPECT_NE(error.find("--replicas"), std::string::npos);  // did-you-mean
}

TEST(McCli, RejectsWorkersFlag) {
  // A world replica is one partition, so a per-replica drain pool buys
  // nothing; the mc flags expose only the replica pool.
  ReplicationOptions defaults;
  const char* argv[] = {"bench", "--workers", "2"};
  std::string error;
  EXPECT_FALSE(parse_mc_cli_strict(3, const_cast<char**>(argv), defaults, &error)
                   .has_value());
  EXPECT_NE(error.find("--workers"), std::string::npos);
}

TEST(McCli, RejectsMissingValueAndBadNumber) {
  ReplicationOptions defaults;
  std::string error;
  const char* trailing[] = {"bench", "--replicas"};
  EXPECT_FALSE(
      parse_mc_cli_strict(2, const_cast<char**>(trailing), defaults, &error)
          .has_value());
  const char* bad[] = {"bench", "--seed", "not-a-number"};
  EXPECT_FALSE(parse_mc_cli_strict(3, const_cast<char**>(bad), defaults, &error)
                   .has_value());
}

}  // namespace
}  // namespace acme::mc
