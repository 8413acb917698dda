#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/spec.h"
#include "common/rng.h"
#include "common/units.h"
#include "sched/scheduler.h"
#include "trace/analysis.h"
#include "trace/comparison.h"
#include "trace/synthesizer.h"
#include "trace/trace_io.h"
#include "trace/workload_profile.h"

namespace acme::trace {
namespace {

using common::kMinute;

Trace seren_trace() {
  static Trace cached = [] {
    auto profile = scaled(seren_profile(), 20.0);
    profile.cpu_jobs = 0;
    return TraceSynthesizer(profile).generate();
  }();
  return cached;
}

Trace kalos_trace() {
  static Trace cached = [] {
    auto profile = kalos_profile();
    profile.cpu_jobs = 0;
    return TraceSynthesizer(profile).generate();
  }();
  return cached;
}

// --- Calibration against the paper's published statistics (DESIGN.md §4) ---

TEST(Calibration, SerenTypeMixMatchesFig4) {
  const auto shares = type_shares(seren_trace());
  EXPECT_NEAR(shares.at(WorkloadType::kEvaluation).count_fraction, 0.78, 0.05);
  EXPECT_NEAR(shares.at(WorkloadType::kPretrain).count_fraction, 0.009, 0.006);
  // Pretraining holds ~69.5% of Seren GPU time.
  EXPECT_GT(shares.at(WorkloadType::kPretrain).gpu_time_fraction, 0.60);
  EXPECT_LT(shares.at(WorkloadType::kPretrain).gpu_time_fraction, 0.82);
  // Evaluation: huge count, tiny GPU time.
  EXPECT_LT(shares.at(WorkloadType::kEvaluation).gpu_time_fraction, 0.05);
}

TEST(Calibration, KalosTypeMixMatchesFig4) {
  const auto shares = type_shares(kalos_trace());
  EXPECT_NEAR(shares.at(WorkloadType::kEvaluation).count_fraction, 0.90, 0.05);
  // Pretraining ~3.2% of jobs but ~94% of GPU time.
  EXPECT_GT(shares.at(WorkloadType::kPretrain).gpu_time_fraction, 0.88);
  EXPECT_LT(shares.at(WorkloadType::kPretrain).count_fraction, 0.09);
  // Evaluation ~0.8% of GPU time.
  EXPECT_LT(shares.at(WorkloadType::kEvaluation).gpu_time_fraction, 0.02);
}

TEST(Calibration, MedianJobDurationAboutTwoMinutes) {
  for (const auto& trace : {seren_trace(), kalos_trace()}) {
    const double median = durations(trace).median();
    EXPECT_GT(median, 0.7 * kMinute);
    EXPECT_LT(median, 4.0 * kMinute);
  }
}

TEST(Calibration, AverageGpuDemandMatchesTable2) {
  // Paper: 5.7 (Seren) and 26.8 (Kalos) average requested GPUs.
  EXPECT_NEAR(average_gpu_demand(seren_trace()), 5.7, 3.0);
  EXPECT_NEAR(average_gpu_demand(kalos_trace()), 26.8, 8.0);
}

TEST(Calibration, DemandSkewMatchesFig3) {
  const auto& trace = kalos_trace();
  auto per_job = demand_per_job(trace);
  auto weighted = demand_weighted_by_gpu_time(trace);
  // Most jobs are small; <7% request more than 8 GPUs.
  EXPECT_GT(per_job.cdf(8.0), 0.93);
  // Single-GPU jobs hold <2% of GPU time; >=256-GPU jobs hold >=90%.
  EXPECT_LT(weighted.cdf(1.0), 0.02);
  EXPECT_GT(1.0 - weighted.cdf(255.0), 0.90);
}

TEST(Calibration, StatusSharesMatchFig17) {
  const auto shares = status_shares(seren_trace());
  EXPECT_NEAR(shares.at(JobStatus::kFailed).count_fraction, 0.40, 0.06);
  // Completed jobs consume only ~20-45% of GPU resources; canceled jobs are
  // few but hold the majority.
  EXPECT_LT(shares.at(JobStatus::kCompleted).gpu_time_fraction, 0.50);
  EXPECT_GT(shares.at(JobStatus::kCanceled).gpu_time_fraction, 0.35);
  EXPECT_LT(shares.at(JobStatus::kCanceled).count_fraction, 0.12);
}

TEST(Calibration, FewJobsExceedOneDay) {
  const auto d = durations(seren_trace());
  EXPECT_LT(1.0 - d.cdf(common::kDay), 0.05);
}

TEST(Calibration, PretrainDemandCorrelatesWithType) {
  // Fig 5: evaluation <= 8 GPUs; pretraining in the hundreds.
  const auto& trace = kalos_trace();
  EXPECT_LE(demand_of(trace, WorkloadType::kEvaluation).quantile(0.95), 8.0);
  EXPECT_GE(demand_of(trace, WorkloadType::kPretrain).median(), 128.0);
}

TEST(Synthesizer, DeterministicForSeed) {
  auto profile = scaled(seren_profile(), 200.0);
  SynthesizerOptions options;
  options.seed = 77;
  const auto a = TraceSynthesizer(profile, options).generate();
  const auto b = TraceSynthesizer(profile, options).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
  }
}

TEST(Synthesizer, DifferentSeedsDiffer) {
  auto profile = scaled(seren_profile(), 200.0);
  SynthesizerOptions a_opt, b_opt;
  a_opt.seed = 1;
  b_opt.seed = 2;
  const auto a = TraceSynthesizer(profile, a_opt).generate();
  const auto b = TraceSynthesizer(profile, b_opt).generate();
  double sum_a = 0, sum_b = 0;
  for (const auto& j : a) sum_a += j.submit_time + j.duration;
  for (const auto& j : b) sum_b += j.submit_time + j.duration;
  EXPECT_NE(sum_a, sum_b);
}

bool submitted_before(const JobRecord& a, const JobRecord& b) {
  if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
  return a.id < b.id;
}

TEST(Synthesizer, SubmissionsSortedWithinHorizon) {
  const auto trace = seren_trace();
  // Strict (submit_time, id) order: equal submit times (an evaluation batch)
  // keep ascending ids, and no id repeats.
  for (std::size_t i = 1; i < trace.size(); ++i)
    ASSERT_TRUE(submitted_before(trace[i - 1], trace[i])) << "at record " << i;
  for (const auto& j : trace) {
    ASSERT_GE(j.submit_time, 0.0);
    ASSERT_LE(j.submit_time, scaled(seren_profile(), 20.0).trace_days * common::kDay);
    ASSERT_GT(j.duration, 0.0);
  }
}

// generate() merges the runs its generator loops emit; the result must equal
// a full sort by (submit_time, id) of the same records, from any input order.
TEST(Synthesizer, MatchesReferenceSortOrder) {
  struct Case {
    const char* name;
    ClusterWorkloadProfile profile;
    SynthesizerOptions options;
  };
  SynthesizerOptions gpu_only;
  gpu_only.include_cpu_jobs = false;
  SynthesizerOptions with_cpu;
  with_cpu.include_cpu_jobs = true;
  SynthesizerOptions single_evals = gpu_only;
  single_evals.eval_batch_mean = 1.0;
  auto no_campaigns = scaled(seren_profile(), 20.0);
  no_campaigns.pretrain_campaign_slots.clear();
  const std::vector<Case> cases = {
      {"seren/20", scaled(seren_profile(), 20.0), gpu_only},
      {"kalos", kalos_profile(), gpu_only},
      {"seren/32 x4", amplified(scaled(seren_profile(), 32.0), 4.0), gpu_only},
      {"seren/20 no campaigns", no_campaigns, gpu_only},
      {"seren/20 with cpu jobs", scaled(seren_profile(), 20.0), with_cpu},
      {"seren/20 single evals", scaled(seren_profile(), 20.0), single_evals},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const Trace trace = TraceSynthesizer(c.profile, c.options).generate();
    ASSERT_FALSE(trace.empty());
    // Scramble before sorting so the reference never inherits generate()'s
    // order.
    Trace reference = trace;
    common::Rng(7).shuffle(reference);
    std::sort(reference.begin(), reference.end(), submitted_before);
    ASSERT_EQ(trace.size(), reference.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const JobRecord& a = trace[i];
      const JobRecord& b = reference[i];
      ASSERT_EQ(a.id, b.id) << "at record " << i;
      ASSERT_EQ(a.type, b.type);
      ASSERT_EQ(a.status, b.status);
      ASSERT_EQ(a.gpus, b.gpus);
      ASSERT_EQ(a.cpus, b.cpus);
      ASSERT_EQ(a.submit_time, b.submit_time);
      ASSERT_EQ(a.duration, b.duration);
      ASSERT_EQ(a.queue_delay, b.queue_delay);
      ASSERT_EQ(a.model_tag_id, b.model_tag_id);
    }
  }
}

TEST(Synthesizer, CpuJobsIncludedWhenRequested) {
  auto profile = scaled(kalos_profile(), 10.0);
  SynthesizerOptions options;
  options.include_cpu_jobs = true;
  const auto trace = TraceSynthesizer(profile, options).generate();
  std::size_t cpu = 0;
  for (const auto& j : trace)
    if (!j.is_gpu_job()) ++cpu;
  EXPECT_GT(cpu, profile.cpu_jobs / 2);
}

TEST(Synthesizer, CampaignJobsCarryModelTags) {
  for (const auto& j : kalos_trace()) {
    if (j.type == WorkloadType::kPretrain) {
      EXPECT_FALSE(j.model_tag().empty());
      EXPECT_GE(j.gpus, 32);
    }
  }
}

// --- Trace I/O ---

Trace csv_round_trip(const Trace& trace) {
  std::stringstream buf;
  write_csv(buf, trace);
  return read_csv(buf);
}

// Bitwise, so a -0.0 / 0.0 or last-ulp difference fails too.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A replayed seren trace (queue delays filled in) written and read back is
// the same trace, field for field and bit for bit.
TEST(TraceIo, CsvRoundTrip) {
  auto profile = scaled(seren_profile(), 200.0);
  sched::SchedulerReplay replay(cluster::seren_spec(), sched::seren_scheduler_config());
  const Trace trace = replay.replay(TraceSynthesizer(profile).generate()).jobs;
  const Trace back = csv_round_trip(trace);
  ASSERT_EQ(back.size(), trace.size());
  std::size_t delayed = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(back[i].id, trace[i].id);
    EXPECT_EQ(back[i].type, trace[i].type);
    EXPECT_EQ(back[i].status, trace[i].status);
    EXPECT_EQ(back[i].gpus, trace[i].gpus);
    EXPECT_EQ(back[i].cpus, trace[i].cpus);
    EXPECT_TRUE(same_bits(back[i].submit_time, trace[i].submit_time));
    EXPECT_TRUE(same_bits(back[i].duration, trace[i].duration));
    EXPECT_TRUE(same_bits(back[i].queue_delay, trace[i].queue_delay));
    EXPECT_EQ(back[i].model_tag_id, trace[i].model_tag_id);
    if (trace[i].queue_delay > 0) ++delayed;
  }
  EXPECT_GT(delayed, 0u);  // the delays round-tripped are not all zero
}

// Replaying a re-imported trace gives the same per-job queue delays as
// replaying the in-memory one.
TEST(TraceIo, ReimportedTraceReplaysIdentically) {
  auto profile = scaled(seren_profile(), 200.0);
  const Trace trace = TraceSynthesizer(profile).generate();
  const auto replay_of = [](Trace jobs) {
    sched::SchedulerReplay replay(cluster::seren_spec(), sched::seren_scheduler_config());
    return replay.replay(std::move(jobs)).jobs;
  };
  const Trace direct = replay_of(trace);
  const Trace reimported = replay_of(csv_round_trip(trace));
  ASSERT_EQ(reimported.size(), direct.size());
  std::size_t delayed = 0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_TRUE(same_bits(reimported[i].queue_delay, direct[i].queue_delay))
        << "job " << i << ": " << reimported[i].queue_delay << " vs "
        << direct[i].queue_delay;
    if (direct[i].queue_delay > 0) ++delayed;
  }
  EXPECT_GT(delayed, 0u);
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream buf("not,a,trace\n1,2,3\n");
  EXPECT_THROW(read_csv(buf), std::exception);
}

constexpr const char* kCsvHeader =
    "id,type,status,gpus,cpus,submit_time,duration,queue_delay,model_tag\n";

// A well-formed first row, then `row` as data row 2: read_csv must reject it
// with an error that names row 2 and the offending field.
void expect_row_rejected(const std::string& row, const std::string& field) {
  SCOPED_TRACE(row);
  std::stringstream buf(std::string(kCsvHeader) +
                        "1,Pretrain,Completed,8,96,0,60,0,llm-7b\n" + row + "\n");
  try {
    read_csv(buf);
    ADD_FAILURE() << "row accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace row 2: "), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

TEST(TraceIo, RejectsIdsThatDoNotFitIn32Bits) {
  expect_row_rejected("4294967296,SFT,Completed,1,12,0,60,0,", "id");
  expect_row_rejected("-1,SFT,Completed,1,12,0,60,0,", "id");
}

TEST(TraceIo, RejectsNegativeResourceCounts) {
  // A negative GPU count would otherwise turn the row into a CPU job.
  expect_row_rejected("2,SFT,Completed,-8,12,0,60,0,", "gpus");
  expect_row_rejected("2,SFT,Completed,8,-12,0,60,0,", "cpus");
}

TEST(TraceIo, RejectsNonFiniteOrNegativeTimes) {
  for (const char* bad : {"nan", "inf", "-5"}) {
    const std::string v = bad;
    expect_row_rejected("2,SFT,Completed,8,96," + v + ",60,0,", "submit_time");
    expect_row_rejected("2,SFT,Completed,8,96,0," + v + ",0,", "duration");
    expect_row_rejected("2,SFT,Completed,8,96,0,60," + v + ",", "queue_delay");
  }
}

TEST(TraceIo, RejectsPartlyNumericFields) {
  expect_row_rejected("7x,SFT,Completed,8,96,0,60,0,", "id");
  expect_row_rejected("2,SFT,Completed,12.5,96,0,60,0,", "gpus");
  expect_row_rejected("2,SFT,Completed,8,3x,0,60,0,", "cpus");
  expect_row_rejected("2,SFT,Completed,8,96,12abc,60,0,", "submit_time");
  expect_row_rejected("2,SFT,Completed,8,96,0,60,+5,", "queue_delay");
}

// write_csv prints the shortest round-trip form, which for the smallest
// subnormal is "5e-324"; reading it back must give the same bits.
TEST(TraceIo, SubnormalTimeRoundTrips) {
  JobRecord job;
  job.id = 3;
  job.type = WorkloadType::kSFT;
  job.gpus = 8;
  job.submit_time = std::numeric_limits<double>::denorm_min();
  job.duration = 60;
  const Trace back = csv_round_trip({job});
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(same_bits(back[0].submit_time, job.submit_time));
}

TEST(TraceIo, LargestIdRoundTrips) {
  JobRecord job;
  job.id = 4294967295u;
  job.type = WorkloadType::kSFT;
  job.gpus = 8;
  job.duration = 60;
  std::stringstream buf;
  write_csv(buf, {job});
  const Trace back = read_csv(buf);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].id, 4294967295u);
}

// --- Analysis ---

TEST(Analysis, QueueDelaysOfIsExactSized) {
  // World reports keep these samples for their lifetime: no growth slack.
  const Trace trace = seren_trace();
  for (WorkloadType type : kAllWorkloadTypes) {
    const common::SampleStats s = queue_delays_of(trace, type);
    EXPECT_EQ(s.values().capacity(), s.count()) << to_string(type);
  }
  EXPECT_GT(queue_delays_of(trace, WorkloadType::kEvaluation).count(), 0u);
}

// --- Comparison datacenters (Table 2, Fig 2) ---

TEST(Comparison, Table2Metadata) {
  EXPECT_EQ(philly_profile().total_gpus, 2490);
  EXPECT_EQ(helios_profile().total_gpus, 6416);
  EXPECT_EQ(pai_profile().total_gpus, 6742);
  EXPECT_DOUBLE_EQ(pai_profile().avg_gpus, 0.7);
}

TEST(Comparison, DurationOrderingMatchesFig2a) {
  // Acme's median (~2 min) is 1.7-7.2x shorter than the others'.
  common::Rng rng(3);
  for (const auto& profile : {philly_profile(), helios_profile(), pai_profile()}) {
    common::SampleStats s;
    for (int i = 0; i < 20000; ++i) s.add(profile.sample_duration(rng));
    EXPECT_GT(s.median(), 1.7 * 2 * kMinute) << profile.name;
    EXPECT_LT(s.median(), 7.5 * 2 * kMinute) << profile.name;
  }
}

TEST(Comparison, PhillyAverageAboutTwelveTimesAcme) {
  common::Rng rng(4);
  common::SampleStats philly;
  for (int i = 0; i < 50000; ++i) philly.add(philly_profile().sample_duration(rng));
  const double acme_avg = durations(seren_trace()).mean();
  EXPECT_GT(philly.mean() / acme_avg, 6.0);
  EXPECT_LT(philly.mean() / acme_avg, 25.0);
}

TEST(Comparison, UtilizationMediansMatchFig2b) {
  common::Rng rng(5);
  common::SampleStats philly, pai;
  for (int i = 0; i < 50000; ++i) {
    philly.add(philly_profile().sample_util(rng));
    pai.add(pai_profile().sample_util(rng));
  }
  EXPECT_NEAR(philly.median(), 48.0, 8.0);
  EXPECT_NEAR(pai.median(), 4.0, 4.0);
}


// Property: downscaling preserves the calibrated type mix (the campaign
// volume scales with the shrunken horizon alongside the Poisson arrivals).
class ScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(ScaleSweep, TypeMixStableUnderScaling) {
  auto profile = scaled(seren_profile(), GetParam());
  profile.cpu_jobs = 0;
  const auto trace = TraceSynthesizer(profile).generate();
  const auto shares = type_shares(trace);
  EXPECT_NEAR(shares.at(WorkloadType::kPretrain).count_fraction, 0.010, 0.008);
  EXPECT_GT(shares.at(WorkloadType::kPretrain).gpu_time_fraction, 0.5);
  EXPECT_NEAR(shares.at(WorkloadType::kEvaluation).count_fraction, 0.78, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Factors, ScaleSweep, ::testing::Values(10.0, 20.0, 40.0));

}  // namespace
}  // namespace acme::trace
