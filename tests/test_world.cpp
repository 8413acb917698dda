// acme::world integration: scenario round-trips, the shared-engine
// composition, and the failure -> recovery -> queue interaction that only an
// integrated replay can show.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/acme.h"
#include "snap/format.h"

namespace acme {
namespace {

world::ScenarioSpec fast_seren(bool failures) {
  world::ScenarioSpec spec = world::seren_scenario();
  spec.name = failures ? "fast-seren" : "fast-seren-quiet";
  spec.scale = 40.0;  // ~4.5 trace days: fast but plenty of failures
  spec.inject_failures = failures;
  spec.fleet_samples = 2000;
  return spec;
}

const world::WorldReport& quiet_report() {
  static const world::WorldReport report = world::run_world(fast_seren(false));
  return report;
}

const world::WorldReport& failing_report() {
  static const world::WorldReport report = world::run_world(fast_seren(true));
  return report;
}

// The "key":value pairs of a to_json string, in order.
std::vector<std::string> json_pairs(const std::string& json) {
  std::vector<std::string> pairs;
  std::size_t begin = 1;  // past '{'
  for (std::size_t i = begin; i < json.size(); ++i)
    if (json[i] == ',' || json[i] == '}') {
      pairs.push_back(json.substr(begin, i - begin));
      begin = i + 1;
    }
  return pairs;
}

TEST(Scenario, JsonRoundTrip) {
  world::ScenarioSpec spec;
  spec.name = "rt";
  spec.cluster = "kalos";
  spec.scale = 0.125;
  spec.sample_interval_seconds = 450.5;
  spec.seed = 1234567;
  spec.inject_failures = false;
  spec.failure_interval_scale = 2.5;
  spec.auto_recovery = false;
  spec.ckpt_interval_seconds = 1234.5;
  spec.async_ckpt = false;
  spec.fleet_samples = 77;
  spec.pretrain = false;
  spec.serve_replicas = 12;
  spec.serve_rps = 123.5;
  spec.serve_duration_seconds = 7200.0;
  spec.node_count = 64;
  spec.topo_datacenters = 2;
  spec.topo_pods_per_dc = 4;
  spec.topo_nodes_per_switch = 4;
  spec.trace_multiplier = 3.5;
  spec.domain_failures = true;
  spec.domain_failure_interval_scale = 0.05;
  // Every field differs from its default, so the round trip covers them all.
  const std::vector<std::string> set = json_pairs(spec.to_json());
  const std::vector<std::string> defaults =
      json_pairs(world::ScenarioSpec{}.to_json());
  ASSERT_EQ(set.size(), defaults.size());
  for (std::size_t i = 0; i < set.size(); ++i) EXPECT_NE(set[i], defaults[i]);

  std::string error;
  auto parsed = world::scenario_from_json(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(*parsed == spec) << parsed->to_json();
}

TEST(Scenario, ParserRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(world::scenario_from_json("{\"scale\":8,\"typo\":1}", &error));
  EXPECT_NE(error.find("typo"), std::string::npos);
  EXPECT_FALSE(world::scenario_from_json("{\"cluster\":\"mars\"}", &error));
  EXPECT_FALSE(world::scenario_from_json("{\"scale\":-1}", &error));
  EXPECT_FALSE(world::scenario_from_json("{\"seed\":-1}", &error));
  EXPECT_NE(error.find("bad value for \"seed\""), std::string::npos) << error;
  EXPECT_FALSE(world::scenario_from_json("{\"fleet_samples\":-1}", &error));
  EXPECT_NE(error.find("bad value for \"fleet_samples\""), std::string::npos)
      << error;
  EXPECT_FALSE(world::scenario_from_json("{\"scale\":\"8\"}", &error));
  EXPECT_FALSE(world::scenario_from_json("{}trailing", &error));
  EXPECT_FALSE(world::scenario_from_json("not json", &error));
  EXPECT_TRUE(world::scenario_from_json("{}", &error).has_value());
}

TEST(Scenario, ServeFieldsRoundTrip) {
  world::ScenarioSpec spec = world::serve_seren_scenario();
  spec.name = "serve-rt";
  spec.serve_replicas = 12;
  spec.serve_duration_seconds = 7200.0;
  // A subnormal prints as "5e-324", which must neither throw nor round.
  for (const double rps : {123.5, std::numeric_limits<double>::denorm_min()}) {
    spec.serve_rps = rps;
    std::string error;
    auto parsed = world::scenario_from_json(spec.to_json(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_TRUE(*parsed == spec) << parsed->to_json();
  }
}

// Each replica is serve::ServeConfig's default; the per-replica shape keys
// are not scenario fields.
TEST(Scenario, ParserRejectsServeShapeKeys) {
  for (const char* key :
       {"serve_gpus_per_replica", "serve_model", "serve_diurnal_amplitude",
        "serve_burst_multiplier", "serve_burst_fraction",
        "serve_slo_ttft_seconds", "serve_slo_tpot_seconds"}) {
    std::string error;
    EXPECT_FALSE(world::scenario_from_json(
        std::string("{\"serve_replicas\":4,\"") + key + "\":1}", &error));
    EXPECT_NE(error.find("unknown scenario key \"" + std::string(key) + "\""),
              std::string::npos)
        << error;
  }
}

TEST(Scenario, ParserRejectsEmptyTopologyTiers) {
  std::string error;
  EXPECT_FALSE(world::scenario_from_json("{\"topo_datacenters\":0}", &error));
  EXPECT_EQ(error, "topo_datacenters must be >= 1, got 0");
  EXPECT_FALSE(world::scenario_from_json("{\"topo_pods_per_dc\":0}", &error));
  EXPECT_EQ(error, "topo_pods_per_dc must be >= 1, got 0");
}

TEST(Scenario, ParserSuggestsNearMissKeys) {
  std::string error;
  EXPECT_FALSE(world::scenario_from_json("{\"serve_replica\":4}", &error));
  EXPECT_NE(error.find("did you mean \"serve_replicas\""), std::string::npos)
      << error;
  EXPECT_FALSE(world::scenario_from_json("{\"sacle\":2}", &error));
  EXPECT_NE(error.find("did you mean \"scale\""), std::string::npos) << error;
  // Nothing plausible nearby: no suggestion, but still a clear rejection.
  EXPECT_FALSE(world::scenario_from_json("{\"zzzzzzzzzz\":1}", &error));
  EXPECT_NE(error.find("unknown scenario key"), std::string::npos);
  EXPECT_EQ(error.find("did you mean"), std::string::npos) << error;
}

TEST(Scenario, ParserRejectsDuplicateKeys) {
  std::string error;
  EXPECT_FALSE(
      world::scenario_from_json("{\"scale\":8,\"scale\":9}", &error));
  EXPECT_NE(error.find("duplicate scenario key \"scale\""), std::string::npos)
      << error;
}

TEST(Scenario, ServeValidationRejectsNonsense) {
  std::string error;
  // A world with neither pretraining nor serving does nothing.
  EXPECT_FALSE(world::scenario_from_json("{\"pretrain\":false}", &error));
  EXPECT_FALSE(world::scenario_from_json(
      "{\"serve_replicas\":4,\"serve_rps\":-1}", &error));
  EXPECT_FALSE(world::scenario_from_json(
      "{\"serve_replicas\":4,\"serve_duration_seconds\":0}", &error));
  EXPECT_TRUE(world::scenario_from_json("{\"serve_replicas\":4}", &error)
                  .has_value())
      << error;
}

// The digest folds every fleet telemetry monitor: one extra or one changed
// observation in any of the 12 flips it.
TEST(World, DigestCoversFleetTelemetry) {
  const world::WorldReport& base = quiet_report();
  ASSERT_EQ(base.fleet.gpu_power_w.count(), 2000u);
  for (std::size_t i = 0; i < base.fleet.monitors().size(); ++i) {
    world::WorldReport extra = base;
    extra.fleet.monitors()[i]->add(0.5);
    EXPECT_NE(extra.digest(), base.digest()) << "monitor " << i;
  }
  // Same count, one reading 1 W higher.
  common::SampleStats power;
  for (double w : base.fleet.gpu_power_w.values())
    power.add(power.empty() ? w + 1.0 : w);
  world::WorldReport nudged = base;
  nudged.fleet.gpu_power_w = power;
  EXPECT_NE(nudged.digest(), base.digest());
}

// With obs on, trace synthesis shows up as its own span nested inside
// world/run, and the run is observably identical to an obs-off run.
TEST(World, ObsTraceNestsSynthesisInsideRun) {
  const std::uint64_t untraced = failing_report().digest();
  obs::reset();
  obs::set_enabled(true);
  const world::WorldReport traced = world::run_world(fast_seren(true));
  obs::set_enabled(false);
  const auto events = obs::tracer().events();
  obs::reset();
  EXPECT_EQ(traced.digest(), untraced);
  EXPECT_FALSE(obs::TraceRecorder::well_formed_error(events).has_value());

  using Phase = obs::TraceEvent::Phase;
  auto find = [&](const char* category, const char* name, Phase phase) {
    for (std::size_t i = 0; i < events.size(); ++i)
      if (events[i].category == category && events[i].name == name &&
          events[i].phase == phase)
        return i;
    ADD_FAILURE() << "no " << category << "/" << name << " event";
    return events.size();
  };
  const std::size_t run_begin = find("world", "run", Phase::kBegin);
  const std::size_t synth_begin = find("trace", "synthesize", Phase::kBegin);
  const std::size_t synth_end = find("trace", "synthesize", Phase::kEnd);
  const std::size_t run_end = find("world", "run", Phase::kEnd);
  ASSERT_LT(run_end, events.size());
  EXPECT_LT(run_begin, synth_begin);
  EXPECT_LT(synth_begin, synth_end);
  EXPECT_LT(synth_end, run_end);
  EXPECT_EQ(events[synth_begin].tid, events[run_begin].tid);
  ASSERT_EQ(events[synth_begin].args.size(), 1u);
  EXPECT_EQ(events[synth_begin].args[0].first, "jobs");
}

TEST(World, ServeOnlyRunReportsFleetCounters) {
  world::ScenarioSpec spec = world::serve_seren_scenario();
  spec.name = "serve-unit";
  spec.serve_replicas = 2;
  spec.serve_rps = 10.0;
  spec.serve_duration_seconds = 300.0;
  const world::WorldReport report = world::run_world(spec);
  ASSERT_TRUE(report.served);
  EXPECT_GT(report.serve.offered, 0u);
  EXPECT_EQ(report.serve.offered, report.serve.completed +
                                      report.serve.rejected +
                                      report.serve.failed);
  EXPECT_GT(report.serve.completed, 0u);
  EXPECT_GT(report.serve.slo_attainment(), 0.9);
  // No scheduler replay ran: the training-side report stays empty.
  EXPECT_EQ(report.replay.jobs.size(), 0u);
  EXPECT_EQ(report.failures_injected, 0);
}

TEST(World, ColocatedRunServesAndTrainsOnOneSpine) {
  world::ScenarioSpec spec = world::colocated_seren_scenario();
  spec.name = "colo-unit";
  spec.scale = 40.0;  // fast replay tier, same as fast_seren
  spec.fleet_samples = 500;
  spec.serve_replicas = 2;
  spec.serve_rps = 10.0;
  spec.serve_duration_seconds = 600.0;
  const world::WorldReport report = world::run_world(spec);
  ASSERT_TRUE(report.served);
  EXPECT_GT(report.serve.completed, 0u);
  // The pretraining campaign ran alongside on the carved-down cluster.
  EXPECT_GT(report.replay.jobs.size(), 0u);
  EXPECT_GT(report.replay.makespan, 0.0);
  EXPECT_GT(report.busy_fraction, 0.0);
}

TEST(Scenario, PresetsResolveByName) {
  auto seren = world::find_scenario("seren");
  ASSERT_TRUE(seren.has_value());
  EXPECT_EQ(seren->cluster, "seren");
  EXPECT_EQ(seren->scale, 8.0);
  ASSERT_TRUE(world::find_scenario("kalos").has_value());
  EXPECT_FALSE(world::find_scenario("nonesuch").has_value());
  const std::vector<std::string> names = world::scenario_names();
  EXPECT_EQ(names,
            (std::vector<std::string>{"colocated-seren", "hyperscale-small",
                                      "kalos", "seren", "serve-seren"}));
  for (const std::string& name : names)
    EXPECT_EQ(world::find_scenario(name).value_or(world::ScenarioSpec{}).name,
              name);
}

// A failure-free replay at `scale`/`seed` with no fleet telemetry: the bare
// trace -> scheduler composition the characterization figures read.
world::ScenarioSpec quiet_replay(world::ScenarioSpec spec, double scale,
                                 std::uint64_t seed) {
  spec.scale = scale;
  spec.seed = seed;
  spec.inject_failures = false;
  spec.fleet_samples = 0;
  return spec;
}

TEST(Scenario, FractionalScaleMatchesDivisorForm) {
  // 0.125 of the trace and 1/8-scale are the same replay.
  const auto divisor =
      world::run_world(quiet_replay(world::seren_scenario(), 40.0, 7));
  const auto fraction =
      world::run_world(quiet_replay(world::seren_scenario(), 0.025, 7));
  ASSERT_EQ(divisor.replay.jobs.size(), fraction.replay.jobs.size());
  EXPECT_EQ(divisor.replay.makespan, fraction.replay.makespan);
  EXPECT_EQ(divisor.busy_fraction, fraction.busy_fraction);
}

TEST(Scenario, NonPositiveScaleRejected) {
  const world::ScenarioSpec seren = world::seren_scenario();
  EXPECT_THROW(world::run_world(quiet_replay(seren, 0.0, 42)),
               common::CheckError);
  EXPECT_THROW(world::run_world(quiet_replay(seren, -2.0, 42)),
               common::CheckError);
}

// With failures off the world's shared-spine replay is exactly the bare
// scheduler replaying the scenario's trace on its own engine: same makespan,
// occupancy timeline, per-job queue delays and busy fraction. This is what
// lets the characterization benches read their replays from a World.
TEST(World, FailureFreeRunMatchesBareSchedulerReplay) {
  for (const world::ScenarioSpec& preset :
       {world::seren_scenario(), world::kalos_scenario()}) {
    for (const double scale : {40.0, 64.0}) {
      for (const std::uint64_t seed : {42ull, 7ull}) {
        SCOPED_TRACE(preset.name + " scale " + std::to_string(scale) +
                     " seed " + std::to_string(seed));
        const world::ScenarioSpec spec = quiet_replay(preset, scale, seed);
        const world::WorldReport report = world::run_world(spec);
        const world::ClusterInputs inputs = world::cluster_inputs(spec);
        sched::SchedulerReplay bare(inputs.spec, inputs.sched_config);
        const sched::ReplayResult replay = bare.replay(
            world::synthesize_trace(spec), spec.sample_interval_seconds);

        EXPECT_EQ(report.replay.makespan, replay.makespan);
        ASSERT_EQ(report.replay.occupancy.size(), replay.occupancy.size());
        EXPECT_EQ(std::memcmp(report.replay.occupancy.data(),
                              replay.occupancy.data(),
                              replay.occupancy.size() *
                                  sizeof(replay.occupancy[0])),
                  0);
        ASSERT_EQ(report.replay.jobs.size(), replay.jobs.size());
        for (std::size_t i = 0; i < replay.jobs.size(); ++i) {
          const trace::JobRecord& job = report.replay.jobs[i];
          ASSERT_EQ(job.id, replay.jobs[i].id);
          ASSERT_EQ(job.queue_delay, replay.jobs[i].queue_delay)
              << "job " << job.id;
        }
        double busy = 0, total = 0;
        for (const auto& s : replay.occupancy) {
          busy += s.busy_gpus;
          total += s.total_gpus;
        }
        EXPECT_EQ(report.busy_fraction, busy / total);
      }
    }
  }
}

TEST(Scenario, ParserRejectsNonFiniteNumbers) {
  // std::stod accepts "nan" and "inf"; the parser must not, for every double
  // field — NaN even slips through `x > 0` range checks (comparison false).
  std::string error;
  EXPECT_FALSE(world::scenario_from_json("{\"scale\":nan}", &error));
  EXPECT_NE(error.find("non-finite"), std::string::npos);
  EXPECT_NE(error.find("scale"), std::string::npos);
  EXPECT_FALSE(world::scenario_from_json("{\"scale\":inf}", &error));
  EXPECT_FALSE(world::scenario_from_json("{\"scale\":-inf}", &error));
  EXPECT_FALSE(
      world::scenario_from_json("{\"failure_interval_scale\":nan}", &error));
  EXPECT_FALSE(
      world::scenario_from_json("{\"ckpt_interval_seconds\":inf}", &error));
  EXPECT_FALSE(world::scenario_from_json(
      "{\"serve_replicas\":1,\"serve_rps\":nan}", &error));
  EXPECT_NE(error.find("serve_rps"), std::string::npos);
  EXPECT_FALSE(world::scenario_from_json(
      "{\"serve_replicas\":1,\"serve_duration_seconds\":inf}", &error));
}

TEST(Scenario, ParserSuggestsAbsoluteValueForDroppedSigns) {
  std::string error;
  EXPECT_FALSE(world::scenario_from_json("{\"scale\":-8}", &error));
  EXPECT_NE(error.find("did you mean 8"), std::string::npos);
  EXPECT_FALSE(
      world::scenario_from_json("{\"ckpt_interval_seconds\":-1800}", &error));
  EXPECT_NE(error.find("did you mean 1800"), std::string::npos);
  EXPECT_FALSE(world::scenario_from_json(
      "{\"serve_replicas\":1,\"serve_rps\":-20}", &error));
  EXPECT_NE(error.find("did you mean 20"), std::string::npos);
}

TEST(World, SnapshotFileRoundTripAndSpecRecovery) {
  world::ScenarioSpec spec = world::seren_scenario();
  spec.scale = 60.0;
  spec.fleet_samples = 100;
  spec.seed = 31337;
  world::World a(spec);
  a.run_until(12 * common::kHour);
  const std::string path = ::testing::TempDir() + "acme_world_snap.bin";
  a.save_file(path);

  // A tool holding only the file recovers the spec, then restores into a
  // world built from it.
  const world::ScenarioSpec recovered = world::snapshot_spec(path);
  EXPECT_EQ(recovered.to_json(), spec.to_json());
  world::World b(recovered);
  b.restore_file(path);
  a.run_until(std::numeric_limits<double>::infinity());
  b.run_until(std::numeric_limits<double>::infinity());
  EXPECT_EQ(a.finish().digest(), b.finish().digest());

  // Restoring a mismatched spec fails loudly.
  world::ScenarioSpec other = spec;
  other.seed = 31338;
  world::World c(other);
  EXPECT_THROW(c.restore_file(path), common::CheckError);
  std::remove(path.c_str());
}

TEST(World, BranchFutureDivergesOnlyTheFuture) {
  world::ScenarioSpec spec = world::seren_scenario();
  spec.scale = 60.0;
  spec.fleet_samples = 0;
  spec.seed = 424242;
  world::World parent(spec);
  parent.run_until(12 * common::kHour);
  snap::SnapshotWriter w;
  parent.save(w);
  const std::string bytes = w.finish();

  const auto run_branch = [&](const char* label) {
    snap::SnapshotReader r{std::string(bytes)};
    world::World child(spec);
    child.restore(r);
    if (label != nullptr) child.branch_future(label);
    child.run_until(std::numeric_limits<double>::infinity());
    return child.finish();
  };
  const world::WorldReport replayed = run_branch(nullptr);
  const world::WorldReport branch_a = run_branch("what-if-a");
  const world::WorldReport branch_a2 = run_branch("what-if-a");
  const world::WorldReport branch_b = run_branch("what-if-b");
  // No label replays the parent's future; same label is reproducible;
  // different labels diverge (different failure arrivals => different
  // digests).
  parent.run_until(std::numeric_limits<double>::infinity());
  EXPECT_EQ(parent.finish().digest(), replayed.digest());
  EXPECT_EQ(branch_a.digest(), branch_a2.digest());
  EXPECT_NE(branch_a.digest(), replayed.digest());
  EXPECT_NE(branch_a.digest(), branch_b.digest());
}

TEST(World, IntegratedRunInjectsAndRecovers) {
  const auto& report = failing_report();
  EXPECT_EQ(report.replay.unstarted, 0u);
  EXPECT_GT(report.failures_injected, 0);
  EXPECT_EQ(report.replay.failure_kills, report.failures_injected);
  EXPECT_GT(report.lost_work_gpu_seconds, 0.0);
  EXPECT_GT(report.recovery_stall_seconds, 0.0);
  EXPECT_GT(report.goodput, 0.5);
  EXPECT_LT(report.goodput, 1.0);
  EXPECT_GT(report.busy_fraction, 0.3);
  // Fleet telemetry came from the same replay's occupancy.
  EXPECT_EQ(report.fleet.gpu_util.count(), 2000u);
}

TEST(World, QuietRunIsCleanBaseline) {
  const auto& report = quiet_report();
  EXPECT_EQ(report.failures_injected, 0);
  EXPECT_EQ(report.replay.failure_kills, 0);
  EXPECT_EQ(report.lost_work_gpu_seconds, 0.0);
  EXPECT_EQ(report.goodput, 1.0);
}

TEST(World, FailuresStretchTheReplay) {
  // Killed jobs re-run lost work and pay recovery stalls on the same
  // engine, so the integrated makespan can only grow.
  EXPECT_GT(failing_report().replay.makespan, quiet_report().replay.makespan);
}

// The acceptance scenario, pinned down deterministically at the scheduler
// layer: a pretraining campaign holds most of the cluster while an
// evaluation batch queues behind it. A mid-run failure (kill_job on the
// shared spine) rolls the campaign back and stalls it through recovery —
// and the queued evaluation trials start measurably later than in the
// failure-free run of the identical trace.
TEST(World, KilledPretrainDelaysQueuedEvaluations) {
  const cluster::ClusterSpec spec = cluster::seren_spec();
  sched::SchedulerConfig config;
  // Thin reservation: the campaign overflows onto the shared partition,
  // where the evaluation batch must wait behind it.
  config.pretrain_reservation = 0.05;
  config.eval_cap_fraction = 1.0;
  trace::Trace input;
  trace::JobRecord campaign;
  campaign.type = trace::WorkloadType::kPretrain;
  campaign.gpus = 2048;
  campaign.submit_time = 0;
  campaign.duration = 10000;
  campaign.set_model_tag("llm-123b");
  input.push_back(campaign);
  for (int i = 0; i < 8; ++i) {
    trace::JobRecord eval;
    eval.type = trace::WorkloadType::kEvaluation;
    eval.gpus = 512;  // more than the 240 GPUs the campaign leaves free
    eval.submit_time = 100;
    eval.duration = 300;
    input.push_back(eval);
  }

  const auto eval_delay_mean = [](const sched::ReplayResult& result) {
    common::SampleStats stats;
    for (const auto& job : result.jobs)
      if (job.type == trace::WorkloadType::kEvaluation)
        stats.add(job.queue_delay);
    return stats.mean();
  };

  sim::Engine clean_engine;
  sched::SchedulerReplay clean(clean_engine, spec, config);
  const auto clean_result = clean.replay(input);

  sim::Engine faulty_engine;
  sched::SchedulerReplay faulty(faulty_engine, spec, config);
  faulty.begin_replay(input);
  faulty_engine.schedule_at(5000.0, [&faulty] {
    ASSERT_EQ(faulty.running_pretrain_jobs().size(), 1u);
    const std::size_t victim = faulty.running_pretrain_jobs().front();
    EXPECT_EQ(faulty.active_job(victim).model_tag(), "llm-123b");
    faulty.kill_job(victim, /*rollback_cap_seconds=*/1800,
                    /*restart_overhead_seconds=*/600);
  });
  faulty_engine.run();
  const auto faulty_result = faulty.finish_replay();

  EXPECT_EQ(faulty_result.failure_kills, 1);
  // Rollback loses min(progress, cap) * gpus of work.
  EXPECT_NEAR(faulty_result.failure_lost_gpu_seconds, 1800.0 * 2048, 1.0);
  EXPECT_NEAR(faulty_result.failure_restart_seconds, 600.0, 1e-9);
  // The campaign re-runs 1800 s of lost work plus the 600 s stall, and every
  // queued evaluation trial inherits that delay through the shared queues.
  EXPECT_GT(eval_delay_mean(faulty_result), eval_delay_mean(clean_result) + 2000);
  EXPECT_GT(faulty_result.makespan, clean_result.makespan + 2000);
}

// The evaluation coordinator on an injected spine must reproduce its legacy
// private-engine run when nothing else shares the engine.
TEST(World, CoordinatorLaunchMatchesLegacyRun) {
  const auto config = evalsched::TrialCoordinator::coordinator_config(2);
  evalsched::TrialCoordinator coordinator(config);
  const auto legacy = coordinator.run();

  sim::Engine engine;
  storage::StorageNetwork net(engine, config.storage);
  evalsched::EvalReport launched;
  bool done = false;
  coordinator.launch(engine, net, evalsched::dataset_suite(),
                     [&](const evalsched::EvalReport& report) {
                       launched = report;
                       done = true;
                     });
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_DOUBLE_EQ(launched.makespan, legacy.makespan);
  EXPECT_DOUBLE_EQ(launched.gpu_busy_seconds, legacy.gpu_busy_seconds);
  EXPECT_EQ(launched.trials, legacy.trials);
}

// A fault preset at test scale with §6.1 recovery automated or manual.
// seren and colocated-seren run the fast 1/40 replay; colocated keeps its
// eight-replica fleet, so its one failure chain kills both serving replicas
// and pretraining jobs, but serves a light ten-minute load. hyperscale-small
// runs as shipped: its domain chain cordons whole subtrees and kills every
// resident job.
world::ScenarioSpec fault_scenario(const std::string& preset,
                                   bool auto_recovery) {
  world::ScenarioSpec spec = *world::find_scenario(preset);
  spec.auto_recovery = auto_recovery;
  spec.fleet_samples = 500;
  if (preset != "hyperscale-small") spec.scale = 40.0;
  if (spec.serving()) {
    spec.serve_rps = 10.0;
    spec.serve_duration_seconds = 600.0;
  }
  return spec;
}

const world::WorldReport& fault_report(const std::string& preset,
                                       bool auto_recovery) {
  static std::map<std::pair<std::string, bool>, world::WorldReport> cache;
  const auto key = std::make_pair(preset, auto_recovery);
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache.emplace(key, world::run_world(fault_scenario(preset,
                                                            auto_recovery)))
             .first;
  return it->second;
}

// Manual recovery pays the on-call TTR on every kill: one manual recovery
// per job or replica fault and per domain-outage resident, no localization.
TEST(World, ManualRecoveryChargesEveryKillToOnCall) {
  for (const char* preset : {"colocated-seren", "hyperscale-small"}) {
    SCOPED_TRACE(preset);
    const world::WorldReport& report = fault_report(preset, false);
    EXPECT_GT(report.failures_injected, 0);
    EXPECT_EQ(report.localizations, 0);
    EXPECT_EQ(report.manual_recoveries,
              report.failures_injected + report.domain_jobs_killed);
  }
  // Both kill sites fired: serving replicas and pretraining jobs.
  const world::WorldReport& colocated = fault_report("colocated-seren", false);
  EXPECT_GT(colocated.serve.replica_kills, 0);
  EXPECT_GT(colocated.replay.failure_kills, 0);
  EXPECT_GT(fault_report("hyperscale-small", false).domain_jobs_killed, 0);
}

// Automated recovery never pages on-call; every domain-outage resident runs
// a localization over the cordoned subtree, and hardware job faults add more.
TEST(World, AutoRecoveryLocalizesEveryDomainKill) {
  for (const char* preset : {"colocated-seren", "hyperscale-small"}) {
    SCOPED_TRACE(preset);
    const world::WorldReport& report = fault_report(preset, true);
    EXPECT_GT(report.failures_injected, 0);
    EXPECT_EQ(report.manual_recoveries, 0);
    EXPECT_GE(report.localizations, report.domain_jobs_killed);
  }
  EXPECT_GT(fault_report("hyperscale-small", true).domain_jobs_killed, 0);
}

// Golden digests of the fault scenarios with recovery automated and manual.
// They pin the restart pricer and the kill accounting: a refactor of the
// fault path must leave every one unchanged. Only a change that alters the
// failure process or its pricing on purpose, such as the node-level failure
// process on the roadmap, re-pins them, and says so. The colocated-seren
// digests also carry the serve latency quantiles; they were re-pinned when
// those moved from P² sketches to log-linear histograms, with every serve
// counter unchanged.
TEST(World, FaultScenarioDigestsArePinned) {
  struct Golden {
    const char* preset;
    bool auto_recovery;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"seren", true, 0xef7965b9998e7dd2ull},
      {"seren", false, 0x1611c181f6d7f65dull},
      {"colocated-seren", true, 0x2b989c473d9aded9ull},
      {"colocated-seren", false, 0x424f178d75028c26ull},
      {"hyperscale-small", true, 0x3fbe207944a4ece7ull},
      {"hyperscale-small", false, 0x740043b37af843bcull},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(g.preset) +
                 (g.auto_recovery ? " auto" : " manual"));
    const std::uint64_t digest =
        fault_report(g.preset, g.auto_recovery).digest();
    EXPECT_EQ(digest, g.digest) << std::hex << "0x" << digest;
  }
}

// A report keeps its delay samples and occupancy timeline for its lifetime,
// so neither carries growth slack.
TEST(World, ReportSamplesAreExactSized) {
  const world::WorldReport& report = failing_report();
  ASSERT_GT(report.pretrain_queue_delay.count(), 0u);
  ASSERT_GT(report.eval_queue_delay.count(), 0u);
  ASSERT_FALSE(report.replay.occupancy.empty());
  EXPECT_EQ(report.pretrain_queue_delay.values().capacity(),
            report.pretrain_queue_delay.count());
  EXPECT_EQ(report.eval_queue_delay.values().capacity(),
            report.eval_queue_delay.count());
  EXPECT_EQ(report.replay.occupancy.capacity(), report.replay.occupancy.size());
}

TEST(World, McReplicasAreIndependent)  {
  mc::ReplicationOptions options;
  options.replicas = 2;
  options.threads = 1;
  world::ScenarioSpec spec = fast_seren(true);
  spec.scale = 80.0;
  const auto run = world::run_world_mc(spec, options);
  ASSERT_EQ(run.results.size(), 2u);
  // Different replica seeds produce different traces.
  EXPECT_NE(run.results[0].replay.makespan, run.results[1].replay.makespan);
  for (const auto& report : run.results) EXPECT_EQ(report.replay.unstarted, 0u);
}

}  // namespace
}  // namespace acme
