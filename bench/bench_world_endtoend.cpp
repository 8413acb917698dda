// End-to-end world replay: the whole datacenter on one discrete-event spine.
//
// Runs a named (or JSON-file) ScenarioSpec through acme::world — six-month
// trace synthesis, quota scheduler, live Table 3 failure injection, §6.1
// recovery pricing, fleet telemetry — and reports how much goodput the
// failures cost, against the paper's §5.2/§6.1 claims. The Monte Carlo
// replication re-seeds the full scenario per replica.
// Flags: --scenario NAME|FILE.json --replicas N --threads K --seed S
//        --json out.json --trace-out t.json --metrics-out m.prom
//        --snapshot-at T --snapshot-out snap.bin | --restore snap.bin
#include <fstream>
#include <sstream>

#include "bench_util.h"

using namespace acme;

namespace {

world::ScenarioSpec resolve_scenario(const std::string& arg) {
  if (auto named = world::find_scenario(arg)) return *named;
  std::ifstream in(arg);
  if (!in) {
    std::fprintf(stderr,
                 "bench_world_endtoend: --scenario \"%s\" is neither a "
                 "registered scenario (", arg.c_str());
    for (const auto& name : world::scenario_names())
      std::fprintf(stderr, "%s ", name.c_str());
    std::fprintf(stderr, ") nor a readable JSON file\n");
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  auto spec = world::scenario_from_json(buf.str(), &error);
  if (!spec) {
    std::fprintf(stderr, "bench_world_endtoend: bad scenario file %s: %s\n",
                 arg.c_str(), error.c_str());
    std::exit(2);
  }
  return *spec;
}

}  // namespace

int main(int argc, char** argv) {
  mc::ReplicationOptions defaults;
  defaults.replicas = 4;
  defaults.stream_label = "world";
  std::string scenario_arg = "seren";

  common::FlagSet flags("bench_world_endtoend");
  bench::BenchCli obs_cli;
  flags.add("--trace-out", &obs_cli.trace_path,
            "write a Chrome trace-event JSON of this run (Perfetto-loadable)");
  flags.add("--metrics-out", &obs_cli.metrics_path,
            "write the self-observability metrics as Prometheus text");
  flags.add("--scenario", &scenario_arg,
            "registered scenario name or path to a ScenarioSpec JSON file");
  obs_cli.mc.options = defaults;
  mc::add_mc_flags(flags, obs_cli.mc);
  bench::SnapshotCli snap_cli;
  bench::add_snapshot_flags(flags, snap_cli);
  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::fprintf(stderr, "bench_world_endtoend: %s\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  const std::string snap_error = bench::snapshot_cli_error(snap_cli);
  if (!snap_error.empty()) {
    std::fprintf(stderr, "bench_world_endtoend: %s\n%s", snap_error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (obs_cli.mc.options.replicas == 0) obs_cli.mc.options.replicas = 1;
  if (!obs_cli.trace_path.empty() || !obs_cli.metrics_path.empty())
    obs::set_enabled(true);
  const mc::McCli& cli = obs_cli.mc;

  // With --restore, the snapshot itself is the source of truth for the
  // scenario: the spec is recovered from its "world.spec" section.
  const world::ScenarioSpec spec = snap_cli.restoring()
                                       ? world::snapshot_spec(snap_cli.restore_path)
                                       : resolve_scenario(scenario_arg);
  bench::header("World", "Integrated end-to-end replay on one event spine");
  std::printf("scenario: %s\n\n", spec.to_json().c_str());

  // Canonical single run at the scenario's own seed (snapshot-aware: the
  // digest is identical whether the run is straight, paused-and-saved, or
  // resumed from a file).
  const world::WorldReport report =
      bench::run_world_snapshot_aware(spec, snap_cli);
  const double trace_days = report.replay.makespan / common::kDay;
  common::Table table({"metric", "value"});
  table.add_row({"makespan", common::format_duration(report.replay.makespan)});
  table.add_row({"occupancy", common::Table::pct(report.busy_fraction)});
  table.add_row({"failures injected", std::to_string(report.failures_injected)});
  table.add_row({"  hit an idle instant", std::to_string(report.failures_no_victim)});
  table.add_row({"  infrastructure", std::to_string(report.infra_failures)});
  table.add_row({"two-round localizations", std::to_string(report.localizations)});
  table.add_row({"manual recoveries", std::to_string(report.manual_recoveries)});
  table.add_row({"recovery stall (sum)",
                 common::format_duration(report.recovery_stall_seconds)});
  table.add_row({"lost work (ckpt-bounded)",
                 common::Table::num(report.lost_work_gpu_seconds / common::kDay, 1) +
                     " GPU-days"});
  table.add_row({"recovery-idled GPUs",
                 common::Table::num(report.stall_gpu_seconds / common::kDay, 1) +
                     " GPU-days"});
  table.add_row({"goodput", common::Table::pct(report.goodput)});
  table.add_row({"pretrain delay median",
                 common::format_duration(report.pretrain_queue_delay.median())});
  table.add_row({"eval delay median",
                 common::format_duration(report.eval_queue_delay.median())});
  if (report.served) {
    const serve::FleetReport& s = report.serve;
    table.add_row({"serve offered",
                   std::to_string(s.offered) + " requests (" +
                       common::Table::num(s.offered_rps(), 1) + " rps)"});
    table.add_row({"serve completed", std::to_string(s.completed)});
    table.add_row({"  rejected / failed", std::to_string(s.rejected) + " / " +
                                              std::to_string(s.failed)});
    table.add_row({"serve replica kills",
                   std::to_string(s.replica_kills) + " (" +
                       std::to_string(s.rewarms) + " re-warmed)"});
    table.add_row({"serve SLO attainment",
                   common::Table::pct(s.slo_attainment())});
    table.add_row({"serve goodput",
                   common::Table::num(s.goodput_rps(), 1) + " rps"});
    table.add_row({"serve ttft p50/p99",
                   common::Table::num(s.ttft_p50, 3) + " / " +
                       common::Table::num(s.ttft_p99, 3) + " s"});
    table.add_row({"serve e2e p99",
                   common::Table::num(s.e2e_p99, 2) + " s"});
  }
  std::printf("%s", table.render().c_str());

  const double lost_total =
      report.lost_work_gpu_seconds + report.stall_gpu_seconds;
  bench::recap(
      "goodput lost to failures",
      "§6.1: ckpt interval bounds rollback; waste stays single-digit %",
      common::Table::pct(1.0 - report.goodput) + " of delivered GPU time");
  bench::recap(
      "infra share of failure GPU time", "82% (§5.2, Table 3)",
      common::Table::pct(lost_total > 0 ? report.infra_lost_gpu_seconds / lost_total
                                        : 0));
  bench::recap("failure cadence",
               "§5.2: frequent interruptions on large pretraining",
               common::Table::num(
                   trace_days > 0 ? report.failures_injected / trace_days : 0, 2) +
                   " kills/trace-day");
  if (report.served)
    bench::recap("serve SLO goodput",
                 "capacity loss shows up as attainment, not just rate",
                 common::Table::pct(report.serve.slo_attainment()) + " SLO, " +
                     common::Table::num(report.serve.goodput_rps(), 1) +
                     " rps goodput");

  // Monte Carlo replication: every replica re-seeds trace synthesis, failure
  // arrivals and fleet sampling from its forked stream.
  const auto run = world::run_world_mc(spec, cli.options);
  mc::MetricAggregator goodput, kills_per_day, lost_gpu_days, eval_delay_h;
  mc::fold_metric(run, [](const world::WorldReport& r) { return r.goodput; },
                  goodput);
  mc::fold_metric(run, [](const world::WorldReport& r) {
    const double days = r.replay.makespan / common::kDay;
    return days > 0 ? r.failures_injected / days : 0.0;
  }, kills_per_day);
  mc::fold_metric(run, [](const world::WorldReport& r) {
    return (r.lost_work_gpu_seconds + r.stall_gpu_seconds) / common::kDay;
  }, lost_gpu_days);
  mc::fold_metric(run, [](const world::WorldReport& r) {
    return r.eval_queue_delay.empty() ? 0.0
                                      : r.eval_queue_delay.median() / common::kHour;
  }, eval_delay_h);

  mc::BenchReport mc_report("world_endtoend");
  mc_report.set_timing(run.timing, cli.options.replicas);
  mc_report.add_metric("goodput", goodput);
  mc_report.add_metric("failure_kills_per_day", kills_per_day, "1/d");
  mc_report.add_metric("failure_lost_gpu_days", lost_gpu_days, "GPU-d");
  mc_report.add_metric("eval_delay_median", eval_delay_h, "h");
  if (spec.serving()) {
    mc::MetricAggregator serve_goodput, serve_slo, serve_ttft_p99;
    mc::fold_metric(run, [](const world::WorldReport& r) {
      return r.serve.goodput_rps();
    }, serve_goodput);
    mc::fold_metric(run, [](const world::WorldReport& r) {
      return r.serve.slo_attainment();
    }, serve_slo);
    mc::fold_metric(run, [](const world::WorldReport& r) {
      return r.serve.ttft_p99;
    }, serve_ttft_p99);
    mc_report.add_metric("serve_goodput_rps", serve_goodput, "1/s");
    mc_report.add_metric("serve_slo_attainment", serve_slo);
    mc_report.add_metric("serve_ttft_p99", serve_ttft_p99, "s");
  }
  bench::mc_footer(mc_report, cli);

  return bench::finish(obs_cli);
}
