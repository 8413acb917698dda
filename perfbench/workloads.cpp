#include "workloads.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "alloc_hook.h"
#include "common/units.h"
#include "mc/replication.h"
#include "snap/format.h"
#include "telemetry/fleet_sampler.h"
#include "trace/analysis.h"

namespace perfbench {

namespace world = acme::world;
using acme::mc::thread_cpu_seconds;

namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    v.push_back({"seren-study", world::seren_scenario(), 40, 2});
    v.push_back({"colocated-drain", world::colocated_seren_scenario(), 8, 1});
    v.push_back({"hyperscale-50k", world::hyperscale_scenario(50048, 3), 8, 1});
    v.push_back({"seren-branch", world::seren_scenario(), 40, 1, 4});
    return v;
  }();
  return all;
}

std::string branch_label(std::size_t i) { return "branch-" + std::to_string(i); }

// The config World::finish() hands the fleet sampler, rebuilt from the
// report so a standalone sample() call can be timed and compared.
acme::telemetry::FleetSamplerConfig fleet_config(
    const world::ScenarioSpec& spec, const world::WorldReport& report) {
  acme::telemetry::FleetSamplerConfig config;
  config.spec = world::cluster_inputs(spec).spec;
  config.busy_fraction = report.busy_fraction;
  for (const auto& [type, share] : acme::trace::type_shares(report.replay.jobs))
    if (share.gpu_time_fraction > 0)
      config.gputime_mix[type] = share.gpu_time_fraction;
  return config;
}

bool same_stats(const acme::common::SampleStats& a,
                const acme::common::SampleStats& b) {
  if (a.count() != b.count()) return false;
  for (double q : {0.01, 0.5, 0.99})
    if (a.quantile(q) != b.quantile(q)) return false;
  return true;
}

// Times the standalone sampler call and checks it reproduces report.fleet
// bit for bit on a few quantiles of several monitors.
double sample_probe(const world::ScenarioSpec& spec,
                    const world::WorldReport& report, std::size_t i,
                    SpanLog& log, std::string& error) {
  if (spec.fleet_samples == 0) return 0;
  acme::telemetry::FleetSamplerConfig config = fleet_config(spec, report);
  acme::common::Rng rng = acme::common::Rng(spec.seed).fork("world-fleet");
  acme::telemetry::FleetMetrics fleet;
  const double s = log.time("telemetry.sample", i, Track::kProbe, [&] {
    const acme::telemetry::FleetSampler sampler(std::move(config));
    fleet = sampler.sample(spec.fleet_samples, rng);
  });
  const auto& f = report.fleet;
  if (!same_stats(fleet.gpu_util, f.gpu_util) ||
      !same_stats(fleet.sm_activity, f.sm_activity) ||
      !same_stats(fleet.gpu_mem_gb, f.gpu_mem_gb) ||
      !same_stats(fleet.gpu_power_w, f.gpu_power_w) ||
      !same_stats(fleet.gpu_mem_temp_c, f.gpu_mem_temp_c))
    error = "standalone FleetSampler::sample differs from report.fleet";
  return s;
}

// Saves the drained world into memory, restores the bytes into a fresh
// world, and checks that the restored world saves the same bytes.
void snap_probe(const world::World& source, const world::ScenarioSpec& spec,
                std::size_t i, SpanLog& log, Traced& t) {
  std::string bytes;
  t.save_s = log.time("snap.save", i, Track::kProbe, [&] {
    acme::snap::SnapshotWriter writer;
    source.save(writer);
    bytes = writer.finish();
  });
  t.snap_bytes = bytes.size();
  world::World copy(spec);
  t.restore_s = log.time("snap.restore", i, Track::kProbe, [&] {
    acme::snap::SnapshotReader reader(bytes);
    copy.restore(reader);
  });
  acme::snap::SnapshotWriter again;
  copy.save(again);
  if (again.finish() != bytes && t.error.empty())
    t.error = "restored world saves different bytes";
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const Workload& w : workloads()) names += (names.empty() ? "" : " ") + w.name;
  return names;
}

std::size_t parent_of(const Workload& w, std::size_t i) {
  return w.branch() ? i / (w.replicas / w.parents) : i;
}

std::size_t future_of(const Workload& w, std::size_t i) {
  return w.branch() ? i % (w.replicas / w.parents) : 0;
}

world::ScenarioSpec replica_spec(const Workload& w, std::uint64_t seed,
                                 std::size_t i) {
  world::ScenarioSpec spec = w.spec;
  acme::common::Rng rng =
      acme::common::Rng(seed).fork("world-" + std::to_string(i));
  spec.seed = rng.next();
  return spec;
}

ReplicaSummary summarize(const world::WorldReport& r, std::uint64_t digest,
                         double sample_interval_s) {
  ReplicaSummary s;
  s.digest = digest;
  s.jobs = r.replay.jobs.size();
  s.unstarted = r.replay.unstarted;
  s.makespan_s = r.replay.makespan;
  s.busy_fraction = r.busy_fraction;
  double busy_gpu_s = 0;
  for (const auto& o : r.replay.occupancy) busy_gpu_s += o.busy_gpus;
  s.busy_gpu_days = busy_gpu_s * sample_interval_s / acme::common::kDay;
  s.eval_delay_p50_s = r.eval_queue_delay.empty() ? 0 : r.eval_queue_delay.median();
  s.goodput = r.goodput;
  s.failure_firings = r.failures_injected + r.failures_no_victim;
  s.failure_kills = r.failures_injected;
  s.localizations = r.localizations;
  s.failures_total = r.failures_injected + r.domain_jobs_killed;
  s.infra_failures = r.infra_failures;
  s.failure_gpu_s = r.lost_work_gpu_seconds + r.stall_gpu_seconds;
  s.infra_gpu_s = r.infra_lost_gpu_seconds;
  s.domain_outages = r.domain_failures_injected;
  s.domain_jobs_killed = r.domain_jobs_killed;
  s.served = r.served;
  if (r.served) {
    s.serve_offered = static_cast<double>(r.serve.offered);
    s.serve_completed = static_cast<double>(r.serve.completed);
    s.serve_slo_attainment = r.serve.slo_attainment();
    s.serve_ttft_p99_s = r.serve.ttft_p99;
  }
  return s;
}

std::string sanity_error(const ReplicaSummary& s, const Workload& w) {
  if (s.digest == 0) return "zero digest";
  if (w.spec.pretrain && s.jobs == 0) return "no jobs replayed";
  if (!(s.makespan_s > 0)) return "non-positive makespan";
  if (!(s.busy_fraction >= 0 && s.busy_fraction <= 1)) return "busy fraction outside [0, 1]";
  if (!(s.goodput > 0 && s.goodput <= 1)) return "goodput outside (0, 1]";
  if (s.infra_gpu_s > s.failure_gpu_s * (1 + 1e-9) + 1e-6)
    return "infra failure GPU time exceeds total failure GPU time";
  if (s.served != w.spec.serving()) return "serving fleet presence differs from spec";
  if (s.served && !(s.serve_completed <= s.serve_offered))
    return "serve completed more requests than offered";
  return {};
}

SetUp set_up(const Workload& w, std::uint64_t seed) {
  const double t0 = wall_seconds();
  SetUp setup;
  if (!w.branch()) {
    acme::mc::ReplicationOptions options;
    options.replicas = 1;
    options.threads = 1;
    options.seed = seed;
    options.stream_label = "world";
    setup.reference_digests.push_back(
        world::run_world_mc(w.spec, options).results[0].digest());
    setup.seconds = wall_seconds() - t0;
    return setup;
  }
  for (std::size_t p = 0; p < w.parents; ++p) {
    const world::ScenarioSpec spec = replica_spec(w, seed, p);
    // The straight run fixes the reference digest and the drain length.
    std::size_t events = 0;
    {
      world::World straight(spec);
      straight.prepare();
      events = straight.run_until(kForever);
      setup.reference_digests.push_back(straight.finish().digest());
    }
    // The parent runs to the simulated time by which half the straight
    // run's drain events have fired, then saves once.
    world::World parent(spec);
    double t = wall_seconds();
    parent.prepare();
    setup.prepare_s += (wall_seconds() - t) / static_cast<double>(w.parents);
    for (std::size_t k = 0; k < events / 2; ++k) parent.engine().step(kForever);
    parent.run_until(parent.engine().now());
    t = wall_seconds();
    acme::snap::SnapshotWriter writer;
    parent.save(writer);
    setup.snapshots.push_back(writer.finish());
    setup.save_s += (wall_seconds() - t) / static_cast<double>(w.parents);
  }
  setup.seconds = wall_seconds() - t0;
  return setup;
}

Study run_study(const Workload& w, std::uint64_t seed, const SetUp& setup) {
  Study study;
  study.replicas.reserve(w.replicas);
  study.replica_cpu_s.reserve(w.replicas);
  const double interval = w.spec.sample_interval_seconds;
  const double t0 = wall_seconds();
  if (!w.branch()) {
    acme::mc::ReplicationOptions options;
    options.replicas = w.replicas;
    options.threads = w.threads;
    options.seed = seed;
    options.stream_label = "world";
    const acme::mc::ReplicaRun<world::WorldReport> run =
        world::run_world_mc(w.spec, options);
    std::vector<std::uint64_t> digests(w.replicas);
    for (std::size_t i = 0; i < w.replicas; ++i) {
      const double c0 = thread_cpu_seconds();
      digests[i] = run.results[i].digest();
      study.replica_cpu_s.push_back(run.replica_seconds[i] +
                                    thread_cpu_seconds() - c0);
    }
    study.wall_s = wall_seconds() - t0;
    for (std::size_t i = 0; i < w.replicas; ++i)
      study.replicas.push_back(summarize(run.results[i], digests[i], interval));
    return study;
  }
  // Futures run one after another; each report is summarized untimed and
  // dropped, so the study's memory does not grow with its size.
  double summarize_s = 0;
  for (std::size_t i = 0; i < w.replicas; ++i) {
    const double c0 = thread_cpu_seconds();
    world::WorldReport report;
    {
      world::World future(replica_spec(w, seed, parent_of(w, i)));
      acme::snap::SnapshotReader reader(setup.snapshots[parent_of(w, i)]);
      future.restore(reader);
      if (future_of(w, i) > 0) future.branch_future(branch_label(future_of(w, i)));
      future.run_until(kForever);
      report = future.finish();
    }
    const std::uint64_t digest = report.digest();
    study.replica_cpu_s.push_back(thread_cpu_seconds() - c0);
    const double s0 = wall_seconds();
    study.replicas.push_back(summarize(report, digest, interval));
    summarize_s += wall_seconds() - s0;
  }
  study.wall_s = wall_seconds() - t0 - summarize_s;
  return study;
}

Traced run_traced(const Workload& w, std::uint64_t seed, const SetUp& setup,
                  std::size_t i, SpanLog& log) {
  Traced t;
  const world::ScenarioSpec spec = replica_spec(w, seed, parent_of(w, i));
  t.synthesize_s = log.time("trace.synthesize", i, Track::kProbe,
                            [&] { t.jobs = world::synthesize_trace(spec).size(); });

  const double w0 = wall_seconds();
  const double c0 = thread_cpu_seconds();
  double paused_wall = 0, paused_cpu = 0;
  std::optional<world::World> replica;
  double construct_s =
      log.time("world.ctor", i, Track::kReplica, [&] { replica.emplace(spec); });
  if (!w.branch()) {
    t.prepare_s = log.time("world.prepare", i, Track::kReplica,
                           [&] { replica->prepare(); });
    // Synthesis runs inside prepare(); the standalone call stands in for it.
    t.self_s[kSynthesize] = std::min(t.synthesize_s, t.prepare_s);
    construct_s += t.prepare_s - t.self_s[kSynthesize];
  } else {
    const std::string& snapshot = setup.snapshots[parent_of(w, i)];
    t.self_s[kSnap] = t.restore_s =
        log.time("snap.restore", i, Track::kReplica, [&] {
          acme::snap::SnapshotReader reader(snapshot);
          replica->restore(reader);
        });
    construct_s += log.time("world.branch_future", i, Track::kReplica, [&] {
      if (future_of(w, i) > 0) replica->branch_future(branch_label(future_of(w, i)));
    });
    t.snap_bytes = snapshot.size();
  }
  t.self_s[kConstruct] = construct_s;
  t.self_s[kDrain] = log.time("sim.drain", i, Track::kReplica, [&] {
    AllocCount allocs;
    t.events = replica->run_until(kForever);
    t.drain_allocs = allocs.count();
  });
  if (!w.branch()) {
    // Beside the replica: a save/restore round trip at the drained point.
    const double pw = wall_seconds(), pc = thread_cpu_seconds();
    snap_probe(*replica, spec, i, log, t);
    paused_wall = wall_seconds() - pw;
    paused_cpu = thread_cpu_seconds() - pc;
  }
  world::WorldReport report;
  const double finish_s = log.time("world.finish", i, Track::kReplica,
                                   [&] { report = replica->finish(); });
  std::uint64_t digest = 0;
  t.self_s[kDigest] = log.time("world.digest", i, Track::kReplica,
                               [&] { digest = report.digest(); });
  t.self_s[kTeardown] = log.time("world.teardown", i, Track::kReplica,
                                 [&] { replica.reset(); });
  const double end = wall_seconds();
  t.cpu_s = thread_cpu_seconds() - c0 - paused_cpu;
  t.wall_s = end - w0 - paused_wall;
  log.add("replica", i, Track::kReplica, w0, end - w0);

  // Beside the replica: the fleet sampler call finish() made.
  t.sample_s = sample_probe(spec, report, i, log, t.error);
  t.self_s[kTelemetry] = std::min(t.sample_s, finish_s);
  t.self_s[kAggregate] = finish_s - t.self_s[kTelemetry];
  double covered = 0;
  for (int l = 0; l < kUnattributed; ++l) covered += t.self_s[l];
  t.self_s[kUnattributed] = t.wall_s - covered;
  t.summary = summarize(report, digest, spec.sample_interval_seconds);
  return t;
}

}  // namespace perfbench
