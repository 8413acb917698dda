#include <gtest/gtest.h>

#include <set>

#include "common/stats.h"
#include "common/units.h"
#include "failure/injector.h"
#include "failure/log_synth.h"
#include "failure/taxonomy.h"

namespace acme::failure {
namespace {

using common::kMinute;

// --- Taxonomy (Table 3) ---

TEST(Taxonomy, HasAll29Rows) {
  EXPECT_EQ(failure_table().size(), 29u);
  std::set<std::string> names;
  for (const auto& s : failure_table()) names.insert(s.reason);
  EXPECT_EQ(names.size(), 29u);  // unique reasons
}

TEST(Taxonomy, CategoryCountsMatchTable3) {
  int infra = 0, framework = 0, script = 0;
  for (const auto& s : failure_table()) {
    switch (s.category) {
      case FailureCategory::kInfrastructure: ++infra; break;
      case FailureCategory::kFramework: ++framework; break;
      case FailureCategory::kScript: ++script; break;
    }
  }
  EXPECT_EQ(infra, 9);
  EXPECT_EQ(framework, 9);
  EXPECT_EQ(script, 11);
}

TEST(Taxonomy, SpotCheckPublishedNumbers) {
  const auto& nvlink = spec_for("NVLink Error");
  EXPECT_EQ(nvlink.count, 54);
  EXPECT_DOUBLE_EQ(nvlink.demand_avg, 800);
  EXPECT_DOUBLE_EQ(nvlink.ttf_median_min, 155.3);
  EXPECT_TRUE(nvlink.needs_node_detection);

  const auto& type_error = spec_for("Type Error");
  EXPECT_EQ(type_error.count, 620);
  EXPECT_EQ(type_error.category, FailureCategory::kScript);
  EXPECT_FALSE(type_error.needs_node_detection);

  EXPECT_THROW(spec_for("Fictional Error"), std::out_of_range);
}

TEST(Taxonomy, EverySpecHasSignatures) {
  for (const auto& s : failure_table()) {
    EXPECT_FALSE(s.log_signatures.empty()) << s.reason;
    EXPECT_TRUE(s.in_seren || s.in_kalos) << s.reason;
  }
}

TEST(Taxonomy, NodeDetectionOnlyForHardware) {
  for (const auto& s : failure_table()) {
    if (s.needs_node_detection) {
      EXPECT_EQ(s.category, FailureCategory::kInfrastructure) << s.reason;
    }
  }
}

TEST(Taxonomy, ClusterRestrictionsFromTable3) {
  EXPECT_FALSE(spec_for("NCCL Timeout Error").in_seren);
  EXPECT_FALSE(spec_for("Node Failure").in_kalos);
  EXPECT_FALSE(spec_for("Model Loading Error").in_seren);
}

// --- Injector ---

TEST(Injector, ReasonMixFollowsCounts) {
  FailureInjector injector(1);
  common::Rng rng(2);
  std::map<std::string, int> counts;
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[injector.sample(rng).spec->reason]++;
  double total_weight = 0;
  for (const auto& s : failure_table()) total_weight += s.count;
  // Type Error (620) should dominate; NCCL Remote Error (3) should be rare.
  EXPECT_NEAR(counts["Type Error"] / static_cast<double>(n),
              620.0 / total_weight, 0.02);
  EXPECT_LT(counts["NCCL Remote Error"], n / 200);
}

TEST(Injector, ClusterFilterRespected) {
  FailureInjector injector(1);
  common::Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(injector.sample_for_cluster(false, rng).spec->in_seren);
    EXPECT_TRUE(injector.sample_for_cluster(true, rng).spec->in_kalos);
  }
}

TEST(Injector, PretrainPoolExcludesScriptErrors) {
  FailureInjector injector(1);
  common::Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    const auto ev = injector.sample_pretrain_failure(rng);
    EXPECT_NE(ev.spec->category, FailureCategory::kScript) << ev.spec->reason;
  }
}

TEST(Injector, DemandSnapsToRequestShapes) {
  FailureInjector injector(1);
  common::Rng rng(5);
  const auto& spec = spec_for("NVLink Error");
  for (int i = 0; i < 2000; ++i) {
    const int d = injector.sample_demand(spec, rng);
    ASSERT_GE(d, 1);
    ASSERT_LE(d, 2048);
    if (d > 8) {
      ASSERT_EQ(d % 8, 0) << d;
    }
  }
}

// Property sweep over Table 3 rows: sampled TTF medians/means track the
// published statistics (the lognormal fit round-trips through sampling).
class TtfFitSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(TtfFitSweep, SampledStatsMatchRow) {
  const auto& spec = spec_for(GetParam());
  FailureInjector injector(1);
  common::Rng rng(6);
  common::SampleStats ttf;
  for (int i = 0; i < 60000; ++i)
    ttf.add(injector.sample_ttf(spec, rng) / kMinute);
  EXPECT_NEAR(ttf.median() / spec.ttf_median_min, 1.0, 0.08);
  const double expected_mean = std::max(spec.ttf_avg_min, spec.ttf_median_min);
  // Sample means of heavy-tailed lognormals converge slowly; widen the band
  // as the mean/median ratio (i.e. sigma) grows.
  const double tolerance = expected_mean / spec.ttf_median_min > 20 ? 0.6 : 0.25;
  EXPECT_NEAR(ttf.mean() / expected_mean, 1.0, tolerance);
}

INSTANTIATE_TEST_SUITE_P(Table3Rows, TtfFitSweep,
                         ::testing::Values("NVLink Error", "CUDA Error",
                                           "ECC Error", "Connection Error",
                                           "Assertion Error", "File Not Found Error",
                                           "Out of Memory Error"));

// --- Log synthesizer ---

TEST(LogSynth, FailedRunContainsRootSignature) {
  LogSynthesizer synth;
  common::Rng rng(7);
  for (const auto& spec : failure_table()) {
    const auto log = synth.failed_run(spec, rng);
    EXPECT_EQ(log.root_cause, spec.reason);
    bool found = false;
    for (const auto& line : log.lines)
      if (line.find(spec.log_signatures.front()) != std::string::npos) found = true;
    EXPECT_TRUE(found) << spec.reason;
  }
}

TEST(LogSynth, ScriptErrorsFailFast) {
  LogSynthesizer synth;
  common::Rng rng(8);
  const auto script = synth.failed_run(spec_for("Type Error"), rng);
  const auto infra = synth.failed_run(spec_for("ECC Error"), rng);
  // Script failures produce far shorter logs (few training steps).
  EXPECT_LT(script.lines.size() * 5, infra.lines.size());
}

TEST(LogSynth, InfraLogsContainCollateralNoise) {
  LogSynthesizer synth;
  common::Rng rng(9);
  const auto log = synth.failed_run(spec_for("CUDA Error"), rng);
  int error_lines = 0;
  for (const auto& line : log.lines)
    if (line.find("Error") != std::string::npos ||
        line.find("WARN") != std::string::npos)
      ++error_lines;
  // Root signature lines plus collateral rank noise.
  EXPECT_GE(error_lines, 3);
}

TEST(LogSynth, HealthyRunHasNoTraceback) {
  LogSynthesizer synth;
  common::Rng rng(10);
  const auto log = synth.healthy_run(rng);
  EXPECT_TRUE(log.root_cause.empty());
  for (const auto& line : log.lines)
    EXPECT_EQ(line.find("Traceback"), std::string::npos);
}

TEST(LogSynth, TrainingMetricsDominateHealthyLogs) {
  LogSynthesizer synth;
  common::Rng rng(11);
  const auto log = synth.healthy_run(rng);
  std::size_t steps = 0;
  for (const auto& line : log.lines)
    if (line.rfind("step=", 0) == 0) ++steps;
  EXPECT_GE(steps, 390u);
}


TEST(LogSynth, DeterministicForIdenticalRngState) {
  LogSynthesizer synth;
  common::Rng a(123), b(123);
  const auto la = synth.failed_run(spec_for("CUDA Error"), a);
  const auto lb = synth.failed_run(spec_for("CUDA Error"), b);
  ASSERT_EQ(la.lines.size(), lb.lines.size());
  for (std::size_t i = 0; i < la.lines.size(); ++i) EXPECT_EQ(la.lines[i], lb.lines[i]);
}

TEST(Injector, TtrNeverNegative) {
  FailureInjector injector(1);
  common::Rng rng(12);
  for (const auto& spec : failure_table())
    for (int i = 0; i < 200; ++i) ASSERT_GE(injector.sample_ttr(spec, rng), 0.0);
}

}  // namespace
}  // namespace acme::failure
