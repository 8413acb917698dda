// Fig 8: CDF of (a) A100 GPU power and (b) server power in Seren.
#include "bench_util.h"

using namespace acme;

int main(int argc, char** argv) {
  const bench::BenchCli obs_cli = bench::parse_cli(argc, argv, "bench_fig8_power_cdf");
  bench::header("Fig 8", "Power consumption CDFs");

  common::Rng rng(8);
  const auto seren_cfg =
      world::fleet_sampler_config(cluster::seren_spec(), bench::seren_replay());
  const auto kalos_cfg =
      world::fleet_sampler_config(cluster::kalos_spec(), bench::kalos_replay());
  const auto seren = telemetry::FleetSampler(seren_cfg).sample(40000, rng);
  const auto kalos = telemetry::FleetSampler(kalos_cfg).sample(40000, rng);

  std::printf("(a) GPU power\n%s\n",
              common::plot_lines(
                  {bench::cdf_series_linear("Seren", seren.gpu_power_w, 0, 620),
                   bench::cdf_series_linear("Kalos", kalos.gpu_power_w, 0, 620)},
                  72, 16, false, "GPU power (W)", "CDF")
                  .c_str());

  // Server power: GPU servers vs the CPU-only service nodes.
  cluster::ServerPowerModel server_model(cluster::seren_spec().node);
  common::SampleStats cpu_servers;
  for (int i = 0; i < 5000; ++i)
    cpu_servers.add(server_model.cpu_server_w(rng.uniform(0.05, 0.30)));
  std::printf("(b) server power (Seren)\n%s\n",
              common::plot_lines(
                  {bench::cdf_series_linear("GPU servers", seren.server_power_w, 0,
                                            6500),
                   bench::cdf_series_linear("CPU servers", cpu_servers, 0, 6500)},
                  72, 16, false, "server power (W)", "CDF")
                  .c_str());

  bench::recap("idle GPUs at ~60 W", "~30% of fleet",
               common::Table::pct(seren.gpu_power_w.cdf(80.0)) + " below 80 W");
  bench::recap("Seren GPUs above 400 W TDP", "22.1%",
               common::Table::pct(1.0 - seren.gpu_power_w.cdf(400.0)));
  bench::recap("Kalos GPUs above 400 W TDP", "12.5%",
               common::Table::pct(1.0 - kalos.gpu_power_w.cdf(400.0)));
  bench::recap("peak GPU power", "~600 W",
               common::Table::num(seren.gpu_power_w.max(), 0) + " W");
  bench::recap("GPU server / CPU server power", "~5x",
               common::Table::num(
                   seren.server_power_w.mean() / cpu_servers.mean(), 1) +
                   "x");
  return bench::finish(obs_cli);
}
