// Cross-module integration tests: the six-month simulation end to end, the
// fleet-sampler wiring, and the full §6.1 failure-handling loop.
#include <gtest/gtest.h>

#include "core/acme.h"

namespace acme {
namespace {

using common::kMinute;

// Failure-free replays with no fleet telemetry: the bare trace -> scheduler
// composition, read off a World.
world::WorldReport quiet_replay(world::ScenarioSpec spec, double scale) {
  spec.scale = scale;
  spec.inject_failures = false;
  spec.fleet_samples = 0;
  return world::run_world(spec);
}

const world::WorldReport& seren_replay() {
  static const world::WorldReport replay =
      quiet_replay(world::seren_scenario(), 20.0);
  return replay;
}

const world::WorldReport& kalos_replay() {
  static const world::WorldReport replay =
      quiet_replay(world::kalos_scenario(), 4.0);
  return replay;
}

TEST(SixMonth, AllJobsScheduledAndAccounted) {
  for (const auto* replay : {&seren_replay(), &kalos_replay()}) {
    EXPECT_EQ(replay->replay.unstarted, 0u);
    EXPECT_GT(replay->replay.jobs.size(), 1000u);
    EXPECT_GT(replay->busy_fraction, 0.4);
    EXPECT_LT(replay->busy_fraction, 1.0);
  }
}

TEST(SixMonth, KalosBusierThanSeren) {
  // Kalos is pretraining-dominated and runs hotter.
  EXPECT_GT(kalos_replay().busy_fraction, 0.65);
}

TEST(SixMonth, EvalDelaysLongestInBothClusters) {
  for (const auto* replay : {&seren_replay(), &kalos_replay()}) {
    const auto& jobs = replay->replay.jobs;
    const auto eval = trace::queue_delays_of(jobs, trace::WorkloadType::kEvaluation);
    const auto pretrain = trace::queue_delays_of(jobs, trace::WorkloadType::kPretrain);
    EXPECT_GT(eval.median(), pretrain.median());
    EXPECT_GT(eval.median(), 2 * kMinute);
    EXPECT_LT(pretrain.median(), 1 * kMinute);
  }
}

TEST(SixMonth, FleetConfigDerivedFromReplay) {
  const auto config =
      world::fleet_sampler_config(cluster::kalos_spec(), kalos_replay());
  EXPECT_EQ(config.spec.name, "Kalos");
  EXPECT_GT(config.busy_fraction, 0.5);
  ASSERT_TRUE(config.gputime_mix.count(trace::WorkloadType::kPretrain));
  EXPECT_GT(config.gputime_mix.at(trace::WorkloadType::kPretrain), 0.8);

  telemetry::FleetSampler sampler(config);
  common::Rng rng(1);
  const auto metrics = sampler.sample(5000, rng);
  EXPECT_GT(metrics.gpu_util.median(), 80.0);
}

// The full §6.1 loop: inject a hardware failure mid-training, diagnose from
// the synthesized log, localize the faulty node with the two-round test,
// cordon it on the cluster state, and restart from the durable checkpoint.
TEST(FailureHandling, EndToEndAutoRecoveryLoop) {
  common::Rng rng(42);
  const auto& spec = failure::spec_for("NVLink Error");

  // 1. Failure fires; runtime log captured.
  failure::LogSynthesizer synth;
  const auto log = synth.failed_run(spec, rng);

  // 2. Compression + diagnosis.
  diagnosis::FilterRules rules;
  diagnosis::LogAgent log_agent;
  log_agent.update_rules(synth.healthy_run(rng).lines, rules);
  const auto compressed = rules.compress(log.lines);
  EXPECT_LT(compressed.size(), log.lines.size());

  diagnosis::FailureAgent agent;
  std::vector<const failure::FailureSpec*> specs;
  for (const auto& s : failure::failure_table()) specs.push_back(&s);
  agent.seed_rules(specs);
  const auto verdict = agent.diagnose(compressed);
  ASSERT_EQ(verdict.reason, "NVLink Error");
  ASSERT_TRUE(verdict.needs_node_detection);

  // 3. Localization over the job's nodes; node 17 is broken.
  cluster::ClusterState state(cluster::kalos_spec());
  auto probe = state.healthy_idle_nodes();
  probe.resize(128);  // the job's 1024-GPU footprint
  const auto localization = recovery::two_round_localize(
      probe, [](cluster::NodeId id) { return id == 17; });
  ASSERT_EQ(localization.faulty, (std::vector<cluster::NodeId>{17}));

  // 4. Cordon and verify the replacement allocation avoids the bad node.
  for (auto id : localization.faulty) state.cordon(id);
  const auto alloc = state.try_allocate(1024);
  ASSERT_TRUE(alloc.has_value());
  state.for_each_slice(*alloc, [](cluster::NodeId node, int) { EXPECT_NE(node, 17); });

  // 5. Restart from the latest durable checkpoint.
  ckpt::CheckpointLedger ledger;
  ledger.record(1000, 100.0, 160.0);
  ledger.record(2000, 200.0, 260.0);
  const auto resume = ledger.latest_durable(230.0);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->step, 1000u);  // step 2000 was still persisting
}

TEST(FailureHandling, CheckpointWriterSurvivesRunnerScaleState) {
  // Glue check: the timing model's per-GPU shard for a 123B/2048-GPU job is
  // what a real writer would stage; stage and persist one for real.
  ckpt::CheckpointTimingModel timing;
  const double shard =
      timing.bytes_per_gpu(parallel::llm_123b().params(), 2048);
  EXPECT_LT(shard, 2e9);  // fits trivially in host memory

  ckpt::NullSink sink;
  ckpt::AsyncCheckpointWriter writer(sink, 2);
  std::vector<std::byte> state(1 << 16);
  writer.snapshot(1, state);
  writer.flush();
  EXPECT_EQ(writer.stats().persisted, 1u);
}

TEST(Environmental, SixMonthEnergyAndCarbonPlausible) {
  // Integrate server power over the replayed occupancy to an energy figure
  // in the neighborhood of the paper's 673 MWh/month for Seren.
  const auto& replay = seren_replay();
  const auto config =
      world::fleet_sampler_config(cluster::seren_spec(), replay);
  telemetry::FleetSampler sampler(config);
  common::Rng rng(3);
  const auto metrics = sampler.sample(4000, rng);
  const double mean_server_w = metrics.server_power_w.mean();
  const double month_mwh =
      mean_server_w * 286 * (30.0 * 24.0) / 1e6;  // W -> MWh over a month
  EXPECT_GT(month_mwh, 300.0);
  EXPECT_LT(month_mwh, 1400.0);
  const cluster::CarbonModel carbon;
  EXPECT_NEAR(carbon.emissions_tco2e(month_mwh) / month_mwh, 0.478, 1e-9);
}

}  // namespace
}  // namespace acme
