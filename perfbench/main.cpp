// World-replica benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one workload's Monte Carlo study for S seconds and checks every
// replica's output. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it spends half the time on untraced studies and half on traced
// replicas, whose layer calls are timed from outside, and reports the
// per-layer metrics and cost ledger (and writes the spans to --trace-out).
// Human-readable lines go first; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr int kSetUpPasses = 3;
// Table 3: infrastructure failures are 11% of failures and 82% of failure
// GPU time.
constexpr double kPaperInfraCountShare = 0.11;
constexpr double kPaperInfraGpuShare = 0.82;
// The traced ledger must attribute all but this share of replica wall time.
constexpr double kMaxUnattributedShare = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      seen_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 3600) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      return false;
    }
  }
  return seen_workload;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest whole percentile with at least ten samples beyond it, by
// nearest rank. With fewer than twenty samples no percentile above the
// median has ten beyond it, so the tail is the median.
double tail(std::vector<double> v, int& percentile) {
  const std::size_t n = v.size();
  percentile = 50;
  if (n < 20) return median(std::move(v));
  std::sort(v.begin(), v.end());
  percentile = static_cast<int>(100 * (n - 10) / n);
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n)));
  return v[rank - 1];
}

// Peak resident set of this process so far, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Collects failed checks: a replica counts once however many checks it fails.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool run_ok = true;  // run-level checks (set-up agreement, ledger closure)

  void replica(const std::string& error, std::size_t i) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "perfbench: replica %zu: %s\n", i, error.c_str());
  }
  void run(bool ok, const char* what) {
    if (ok) return;
    run_ok = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what);
  }
};

// Untraced studies until the deadline; at least one. Every study runs the
// same replicas, so a replica's time is the median over its repeats, which
// keeps one noisy repeat from setting the tail.
struct Untraced {
  std::vector<std::vector<double>> replica_cpu_s;  // per replica, per study
  std::vector<double> study_wall_s;
  std::vector<double> speedup;  // serial-equivalent CPU over study wall time
  std::vector<ReplicaSummary> first;  // the first study's replicas

  std::vector<double> replica_medians() const {
    std::vector<double> v;
    for (const auto& repeats : replica_cpu_s) v.push_back(median(repeats));
    return v;
  }
};

Untraced run_studies(const Workload& w, const Args& a, const SetUp& setup,
                     double deadline, Checks& checks) {
  Untraced u;
  u.replica_cpu_s.resize(w.replicas);
  do {
    Study study = run_study(w, a.seed, setup);
    for (std::size_t i = 0; i < study.replicas.size(); ++i) {
      const ReplicaSummary& r = study.replicas[i];
      std::string error = sanity_error(r, w);
      // Replica 0 reproduces the warm-up run; each branch parent's future 0
      // reproduces that parent's straight run.
      const bool has_reference = w.branch() ? future_of(w, i) == 0 : i == 0;
      if (error.empty() && has_reference &&
          r.digest != setup.reference_digests[parent_of(w, i)])
        error = w.branch() ? "future 0 digest differs from the straight run"
                         : "replica 0 digest differs from the warm-up run";
      if (error.empty() && !u.first.empty() && r.digest != u.first[i].digest)
        error = "digest differs from the study's first run";
      checks.replica(error, i);
      u.replica_cpu_s[i].push_back(study.replica_cpu_s[i]);
    }
    u.study_wall_s.push_back(study.wall_s);
    double serial_s = 0;
    for (double s : study.replica_cpu_s) serial_s += s;
    u.speedup.push_back(serial_s / study.wall_s);
    if (u.first.empty()) u.first = std::move(study.replicas);
    // Start no study that would end past the deadline.
  } while (wall_seconds() + u.study_wall_s.back() <= deadline);
  return u;
}

Traced traced_replica(const Workload& w, const Args& a, const SetUp& setup,
                      std::size_t i, const Untraced& u, SpanLog& log,
                      Checks& checks) {
  Traced t = run_traced(w, a.seed, setup, i, log);
  std::string error = t.error;
  if (error.empty()) error = sanity_error(t.summary, w);
  if (error.empty() && t.summary.digest != u.first[i].digest)
    error = "traced digest differs from the untraced run";
  checks.replica(error, i);
  return t;
}

// Pooled over the study's replicas, in percentage points.
void accuracy(const std::vector<ReplicaSummary>& rs, double& gpu_err,
              double& count_err) {
  double infra_gpu = 0, total_gpu = 0, infra_n = 0, total_n = 0;
  for (const ReplicaSummary& r : rs) {
    infra_gpu += r.infra_gpu_s;
    total_gpu += r.failure_gpu_s;
    infra_n += r.infra_failures;
    total_n += r.failures_total;
  }
  gpu_err = 100 * std::fabs((total_gpu > 0 ? infra_gpu / total_gpu : 0) -
                            kPaperInfraGpuShare);
  count_err = 100 * std::fabs((total_n > 0 ? infra_n / total_n : 0) -
                              kPaperInfraCountShare);
}

template <typename F>
double median_of(const std::vector<Traced>& ts, F&& f) {
  std::vector<double> v;
  v.reserve(ts.size());
  for (const Traced& t : ts) v.push_back(f(t));
  return median(v);
}

// The lower median of a count over the study's distinct replicas (the first
// `replicas` traced runs), so the value is one replica's and does not depend
// on how many replicas the time allowed.
template <typename F>
double count_of(const std::vector<Traced>& ts, std::size_t replicas, F&& f) {
  std::vector<double> v;
  for (std::size_t i = 0; i < replicas && i < ts.size(); ++i) v.push_back(f(ts[i]));
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[(v.size() - 1) / 2];
}

std::vector<Metric> end_to_end(const Workload& w, const Untraced& u,
                               double setup_s, double rss_mb,
                               const Checks& checks) {
  int pct = 0;
  const std::vector<double> per_replica = u.replica_medians();
  const double tail_ms = 1e3 * tail(per_replica, pct);
  std::printf("replica_cpu_ms_tail is p%d over %zu replicas, each the median of "
              "%zu studies\n",
              pct, w.replicas, u.study_wall_s.size());
  const double pass =
      1.0 - static_cast<double>(checks.failed) / static_cast<double>(checks.attempted);
  return {
      {"replica_cpu_ms_p50", 1e3 * median(per_replica), "ms"},
      {"replica_cpu_ms_tail", tail_ms, "ms"},
      {"study_wall_s", median(u.study_wall_s), "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"replica_pass_ratio", pass, "ratio"},
  };
}

// Set-up figures, one per pass.
struct SetUpTimes {
  std::vector<double> seconds;
  std::vector<double> prepare_s;
  std::vector<double> save_s;
};

std::vector<Metric> per_layer(const Workload& w, const Untraced& u,
                              const std::vector<Traced>& ts,
                              const SetUpTimes& setup, double untraced_p50_s) {
  std::vector<Metric> m;
  const auto ms = [&](const char* name, auto f) {
    m.push_back({name, 1e3 * median_of(ts, f), "ms"});
  };
  const auto count = [&](const char* name, auto f, const char* unit) {
    m.push_back({name, count_of(ts, w.replicas, f), unit});
  };

  ms("trace.synthesize_ms", [](const Traced& t) { return t.synthesize_s; });
  count("trace.jobs", [](const Traced& t) { return static_cast<double>(t.jobs); }, "count");
  // A branch study prepares and saves its parents during set-up only.
  if (w.branch())
    m.push_back({"world.prepare_ms", 1e3 * median(setup.prepare_s), "ms"});
  else
    ms("world.prepare_ms", [](const Traced& t) { return t.prepare_s; });
  ms("world.construct_ms", [](const Traced& t) { return t.self_s[kConstruct]; });
  ms("sim.drain_ms", [](const Traced& t) { return t.self_s[kDrain]; });
  count("sim.events", [](const Traced& t) { return static_cast<double>(t.events); }, "count");
  m.push_back({"sim.ns_per_event", median_of(ts, [](const Traced& t) {
    return t.events > 0 ? 1e9 * t.self_s[kDrain] / static_cast<double>(t.events) : 0.0;
  }), "ns"});
  count("sim.drain_allocs",
        [](const Traced& t) { return static_cast<double>(t.drain_allocs); }, "count");
  ms("telemetry.sample_ms", [](const Traced& t) { return t.sample_s; });
  ms("world.aggregate_ms", [](const Traced& t) { return t.self_s[kAggregate]; });
  ms("world.digest_ms", [](const Traced& t) { return t.self_s[kDigest]; });
  ms("world.teardown_ms", [](const Traced& t) { return t.self_s[kTeardown]; });
  if (w.branch())
    m.push_back({"snap.save_ms", 1e3 * median(setup.save_s), "ms"});
  else
    ms("snap.save_ms", [](const Traced& t) { return t.save_s; });
  ms("snap.restore_ms", [](const Traced& t) { return t.restore_s; });
  count("snap.bytes", [](const Traced& t) { return static_cast<double>(t.snap_bytes); }, "bytes");
  m.push_back({"mc.speedup", median(u.speedup), "x"});

  const auto sim = [&](const char* name, auto f, const char* unit) {
    count(name, [f](const Traced& t) { return static_cast<double>(f(t.summary)); }, unit);
  };
  sim("sched.unstarted", [](const ReplicaSummary& s) { return s.unstarted; }, "count");
  sim("sched.busy_fraction", [](const ReplicaSummary& s) { return s.busy_fraction; }, "ratio");
  sim("sched.eval_delay_p50_s", [](const ReplicaSummary& s) { return s.eval_delay_p50_s; }, "sim_s");
  sim("failure.firings", [](const ReplicaSummary& s) { return s.failure_firings; }, "count");
  sim("failure.kills", [](const ReplicaSummary& s) { return s.failure_kills; }, "count");
  sim("failure.victim_ratio", [](const ReplicaSummary& s) {
    return s.failure_firings > 0 ? static_cast<double>(s.failure_kills) / s.failure_firings : 0.0;
  }, "ratio");
  sim("failure.kills_per_1k_gpu_days", [](const ReplicaSummary& s) {
    return s.busy_gpu_days > 0 ? 1e3 * s.failure_kills / s.busy_gpu_days : 0.0;
  }, "1/kGPU-d");
  sim("recovery.localizations", [](const ReplicaSummary& s) { return s.localizations; }, "count");
  sim("recovery.goodput", [](const ReplicaSummary& s) { return s.goodput; }, "ratio");
  sim("domain.outages", [](const ReplicaSummary& s) { return s.domain_outages; }, "count");
  sim("domain.jobs_killed", [](const ReplicaSummary& s) { return s.domain_jobs_killed; }, "count");
  sim("serve.offered", [](const ReplicaSummary& s) { return s.serve_offered; }, "count");
  sim("serve.completed_ratio", [](const ReplicaSummary& s) {
    return s.serve_offered > 0 ? s.serve_completed / s.serve_offered : 0.0;
  }, "ratio");
  sim("serve.slo_attainment", [](const ReplicaSummary& s) { return s.serve_slo_attainment; }, "ratio");
  sim("serve.ttft_p99_s", [](const ReplicaSummary& s) { return s.serve_ttft_p99_s; }, "sim_s");

  double gpu_err = 0, count_err = 0;
  accuracy(u.first, gpu_err, count_err);
  m.push_back({"infra_gpu_share_err_pts", gpu_err, "pts"});
  m.push_back({"infra_count_share_err_pts", count_err, "pts"});

  // The ledger: pooled self time per layer over pooled traced wall time.
  double wall = 0;
  std::array<double, kLayers> self{};
  for (const Traced& t : ts) {
    wall += t.wall_s;
    for (int l = 0; l < kLayers; ++l) self[l] += t.self_s[l];
  }
  ms("world.replica_ms", [](const Traced& t) { return t.wall_s; });
  ms("world.unattributed_ms", [](const Traced& t) { return t.self_s[kUnattributed]; });
  for (int l = 0; l < kLayers; ++l)
    m.push_back({std::string("ledger.") + kLayerNames[l] + "_pct",
                 100 * self[l] / wall, "%"});
  const double traced_p50 = median_of(ts, [](const Traced& t) { return t.cpu_s; });
  m.push_back({"obs.trace_overhead_pct",
               100 * (traced_p50 - untraced_p50_s) / untraced_p50_s, "%"});
  return m;
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const bool correct = checks.run_ok && checks.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", checks.attempted, checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  const double start = wall_seconds();
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\" (known: %s)\n",
                 a.workload.c_str(), workload_names().c_str());
    return 2;
  }
  Checks checks;

  // Set-up, several times; the first pass also carries process start-up.
  // Later passes must reproduce the first one's digests and snapshots.
  const SetUp setup = set_up(*w, a.seed);
  SetUpTimes times{{wall_seconds() - start}, {setup.prepare_s}, {setup.save_s}};
  for (int p = 1; p < kSetUpPasses; ++p) {
    const SetUp again = set_up(*w, a.seed);
    times.seconds.push_back(again.seconds);
    times.prepare_s.push_back(again.prepare_s);
    times.save_s.push_back(again.save_s);
    checks.run(again.reference_digests == setup.reference_digests &&
                   again.snapshots == setup.snapshots,
               "set-up passes disagree");
  }
  std::printf("workload %s: %zu replicas per study on %zu thread(s), seed %" PRIu64
              ", %.0f s, trace %d\n",
              w->name.c_str(), w->replicas, w->threads, a.seed, a.seconds, a.trace);

  if (a.trace == 0) {
    const Untraced u = run_studies(*w, a, setup, wall_seconds() + a.seconds, checks);
    const double rss = peak_rss_mb();
    // After the measured window: replica 0 once more through the traced
    // path, which checks its digest, the telemetry sample and a snapshot
    // round trip.
    SpanLog log;
    traced_replica(*w, a, setup, 0, u, log, checks);
    print_result(checks, end_to_end(*w, u, median(times.seconds), rss, checks));
    return 0;
  }

  const double half = a.seconds / 2;
  const Untraced u = run_studies(*w, a, setup, wall_seconds() + half, checks);
  const double deadline = wall_seconds() + half;
  SpanLog log;
  std::vector<Traced> traced;
  // Every replica of the study once, then round robin while another traced
  // replica still fits before the deadline.
  double last = 0;
  for (std::size_t k = 0; k < w->replicas || wall_seconds() + last <= deadline; ++k) {
    const double t0 = wall_seconds();
    traced.push_back(traced_replica(*w, a, setup, k % w->replicas, u, log, checks));
    last = wall_seconds() - t0;
  }

  double wall = 0, unattributed = 0;
  for (const Traced& t : traced) {
    wall += t.wall_s;
    unattributed += t.self_s[kUnattributed];
  }
  std::printf("ledger: %zu traced replicas, %.2f%% of replica wall time unattributed\n",
              traced.size(), 100 * unattributed / wall);
  checks.run(std::fabs(unattributed) <= kMaxUnattributedShare * wall,
             "ledger leaves more than 5% of replica wall time unattributed");
  if (!a.trace_out.empty()) {
    if (log.write_chrome_json(a.trace_out))
      std::printf("spans: %s (%zu)\n", a.trace_out.c_str(), log.spans().size());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
  }
  print_result(checks, per_layer(*w, u, traced, times, median(u.replica_medians())));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {%s} --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 workload_names().c_str());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
