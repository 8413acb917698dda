// Fig 7: infrastructure utilization CDFs — SM/TC activity, host & GPU memory
// footprints, CPU utilization, and IB bandwidth.
#include "bench_util.h"

using namespace acme;

int main(int argc, char** argv) {
  const bench::BenchCli obs_cli = bench::parse_cli(argc, argv, "bench_fig7_infra_util");
  bench::header("Fig 7", "Infrastructure utilization (monitor-data CDFs)");

  common::Rng rng(7);
  const auto seren_cfg =
      world::fleet_sampler_config(cluster::seren_spec(), bench::seren_replay());
  const auto kalos_cfg =
      world::fleet_sampler_config(cluster::kalos_spec(), bench::kalos_replay());
  const auto seren = telemetry::FleetSampler(seren_cfg).sample(40000, rng);
  const auto kalos = telemetry::FleetSampler(kalos_cfg).sample(40000, rng);

  std::printf("(a) SM / TC activity\n%s\n",
              common::plot_lines(
                  {bench::cdf_series_linear("Seren SM", seren.sm_activity, 0, 1),
                   bench::cdf_series_linear("Kalos SM", kalos.sm_activity, 0, 1),
                   bench::cdf_series_linear("Seren TC", seren.tc_activity, 0, 1),
                   bench::cdf_series_linear("Kalos TC", kalos.tc_activity, 0, 1)},
                  72, 14, false, "activity fraction", "CDF")
                  .c_str());
  std::printf(
      "(b) memory footprints\n%s\n",
      common::plot_lines(
          {bench::cdf_series_linear("Seren GPU mem (GB)", seren.gpu_mem_gb, 0, 80),
           bench::cdf_series_linear("Kalos GPU mem (GB)", kalos.gpu_mem_gb, 0, 80)},
          72, 14, false, "GPU memory (GB)", "CDF")
          .c_str());
  std::printf("%s\n",
              common::plot_lines({bench::cdf_series_linear(
                                      "Seren host mem", seren.host_mem_frac, 0, 1),
                                  bench::cdf_series_linear(
                                      "Kalos host mem", kalos.host_mem_frac, 0, 1)},
                                 72, 12, false, "host memory fraction", "CDF")
                  .c_str());
  std::printf("(c) CPU utilization\n%s\n",
              common::plot_lines(
                  {bench::cdf_series_linear("Seren", seren.cpu_util, 0, 1),
                   bench::cdf_series_linear("Kalos", kalos.cpu_util, 0, 1)},
                  72, 12, false, "CPU utilization", "CDF")
                  .c_str());
  std::printf("(d) IB bandwidth (Seren)\n%s\n",
              common::plot_lines(
                  {bench::cdf_series_linear("send", seren.ib_send_frac, 0, 1),
                   bench::cdf_series_linear("recv", seren.ib_recv_frac, 0, 1)},
                  72, 12, false, "fraction of peak NIC bandwidth", "CDF")
                  .c_str());

  bench::recap("median SM activity", "~40%",
               common::Table::pct(kalos.sm_activity.median()) + " (Kalos)");
  bench::recap("Kalos GPUs above 60 GB (75%) memory", "~50%",
               common::Table::pct(1.0 - kalos.gpu_mem_gb.cdf(60.0)));
  bench::recap("host memory utilization", "<50%",
               "p90 " + common::Table::pct(kalos.host_mem_frac.quantile(0.9)));
  bench::recap("CPU utilization", "low (16 CPUs/GPU)",
               "median " + common::Table::pct(seren.cpu_util.median()));
  bench::recap("IB NICs idle share of time", ">60%",
               common::Table::pct(seren.ib_send_frac.cdf(0.005)));
  bench::recap("IB active bw above 25% of peak", "rare",
               common::Table::pct(1.0 - seren.ib_send_frac.cdf(0.25)));
  return bench::finish(obs_cli);
}
