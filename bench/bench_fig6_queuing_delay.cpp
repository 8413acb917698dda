// Fig 6: CDF of job duration and queuing delay per workload type, from the
// six-month replay through the quota-reservation scheduler.
//
// Monte Carlo conversion: besides the canonical single-seed tables/plots, the
// bench replays the Seren trace across N independent replicas (one resampled
// trace + private scheduler each) on a worker pool and reports t-based 95%
// confidence intervals on the headline queuing-delay metrics.
// Flags: --replicas N --threads K --seed S --json out.json
#include "bench_util.h"

using namespace acme;

namespace {

void print_cluster(const char* name, const trace::Trace& jobs) {
  std::printf("\n-- %s --\n", name);
  common::Table table({"Workload", "dur median", "dur p95", "delay median",
                       "delay mean", "delay p95"});
  std::vector<common::Series> delay_series;
  for (trace::WorkloadType type : trace::kAllWorkloadTypes) {
    const auto dur = trace::durations_of(jobs, type);
    const auto delay = trace::queue_delays_of(jobs, type);
    if (dur.empty()) continue;
    table.add_row({trace::to_string(type), common::format_duration(dur.median()),
                   common::format_duration(dur.quantile(0.95)),
                   common::format_duration(delay.median()),
                   common::format_duration(delay.mean()),
                   common::format_duration(delay.quantile(0.95))});
    if (type == trace::WorkloadType::kPretrain ||
        type == trace::WorkloadType::kEvaluation ||
        type == trace::WorkloadType::kDebug) {
      auto shifted = delay;  // log-x CDF needs positive values
      common::SampleStats positive;
      for (double v : shifted.values()) positive.add(v + 1.0);
      delay_series.push_back(
          bench::cdf_series(trace::to_string(type), positive, 1, 1e6));
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("queuing delay CDF (log x, +1 s offset):\n%s\n",
              common::plot_lines(delay_series, 72, 14, true, "delay (s)", "CDF")
                  .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  mc::ReplicationOptions defaults;
  defaults.replicas = 8;
  defaults.stream_label = "fig6-seren";
  const bench::BenchCli obs_cli =
      bench::parse_cli(argc, argv, "bench_fig6_queuing_delay", defaults);
  const mc::McCli& cli = obs_cli.mc;
  bench::header("Fig 6", "Job duration and queuing delay per workload type");
  print_cluster("Seren", bench::seren_replay().replay.jobs);
  print_cluster("Kalos", bench::kalos_replay().replay.jobs);

  for (const char* name : {"Seren", "Kalos"}) {
    const auto& jobs = std::string(name) == "Seren"
                           ? bench::seren_replay().replay.jobs
                           : bench::kalos_replay().replay.jobs;
    const auto eval = trace::queue_delays_of(jobs, trace::WorkloadType::kEvaluation);
    const auto pre = trace::queue_delays_of(jobs, trace::WorkloadType::kPretrain);
    bench::recap(std::string(name) + ": eval delay vs pretrain delay (median)",
                 "eval longest, pretrain ~0",
                 common::format_duration(eval.median()) + " vs " +
                     common::format_duration(pre.median()));
  }

  // Multi-seed replication of the Seren replay (1/8 job scale per replica).
  const auto run = world::run_world_mc(
      bench::replay_scenario(world::seren_scenario()), cli.options);

  mc::MetricAggregator eval_median_h, pretrain_median_s, over_day_pct;
  mc::fold_metric(run, [](const world::WorldReport& r) {
    return trace::queue_delays_of(r.replay.jobs, trace::WorkloadType::kEvaluation)
               .median() / common::kHour;
  }, eval_median_h);
  mc::fold_metric(run, [](const world::WorldReport& r) {
    return trace::queue_delays_of(r.replay.jobs, trace::WorkloadType::kPretrain)
        .median();
  }, pretrain_median_s);
  mc::fold_metric(run, [](const world::WorldReport& r) {
    return 100.0 * (1.0 - trace::durations(r.replay.jobs).cdf(common::kDay));
  }, over_day_pct);

  mc::BenchReport report("fig6_queuing_delay");
  report.set_timing(run.timing, cli.options.replicas);
  report.add_metric("seren_eval_delay_median", eval_median_h, "h");
  report.add_metric("seren_pretrain_delay_median", pretrain_median_s, "s");
  report.add_metric("seren_jobs_over_1day_pct", over_day_pct, "%");

  bench::recap("Seren eval delay median (multi-seed)", "longest of all types",
               common::Table::num(eval_median_h.mean(), 1) + " h",
               mc::format_with_ci(eval_median_h.mean(), eval_median_h.ci95(), "h", 1));
  bench::recap("Seren pretrain delay median (multi-seed)", "~0",
               common::Table::num(pretrain_median_s.mean(), 1) + " s",
               mc::format_with_ci(pretrain_median_s.mean(),
                                  pretrain_median_s.ci95(), "s", 1));
  bench::recap("jobs running > 1 day (multi-seed)", "<5%",
               common::Table::num(over_day_pct.mean(), 2) + "%",
               mc::format_with_ci(over_day_pct.mean(), over_day_pct.ci95(), "%", 2));
  bench::mc_footer(report, cli);
  return bench::finish(obs_cli);
}
