// Fig 21 (Appendix A.5): CDFs of GPU core and GPU memory temperature.
#include "bench_util.h"

using namespace acme;

int main(int argc, char** argv) {
  const bench::BenchCli obs_cli = bench::parse_cli(argc, argv, "bench_fig21_temperature");
  bench::header("Fig 21", "GPU core and memory temperature CDFs");

  common::Rng rng(21);
  const auto cfg =
      world::fleet_sampler_config(cluster::kalos_spec(), bench::kalos_replay());
  const auto metrics = telemetry::FleetSampler(cfg).sample(40000, rng);

  std::printf("%s\n",
              common::plot_lines(
                  {bench::cdf_series_linear("GPU core", metrics.gpu_core_temp_c, 25, 95),
                   bench::cdf_series_linear("GPU memory", metrics.gpu_mem_temp_c, 25, 95)},
                  72, 16, false, "temperature (C)", "CDF")
                  .c_str());

  common::Table table({"Sensor", "median", "p90", "max"});
  table.add_row({"GPU core", common::Table::num(metrics.gpu_core_temp_c.median(), 1),
                 common::Table::num(metrics.gpu_core_temp_c.quantile(0.9), 1),
                 common::Table::num(metrics.gpu_core_temp_c.max(), 1)});
  table.add_row({"GPU memory", common::Table::num(metrics.gpu_mem_temp_c.median(), 1),
                 common::Table::num(metrics.gpu_mem_temp_c.quantile(0.9), 1),
                 common::Table::num(metrics.gpu_mem_temp_c.max(), 1)});
  std::printf("%s", table.render().c_str());

  bench::recap("memory vs core temperature", "memory runs hotter",
               "+" + common::Table::num(metrics.gpu_mem_temp_c.median() -
                                            metrics.gpu_core_temp_c.median(),
                                        1) +
                   " C at the median");
  bench::recap("heavy-load GPUs above 65 C", "a visible population",
               common::Table::pct(1.0 - metrics.gpu_core_temp_c.cdf(65.0)));
  std::printf(
      "  note: July 2023 ambient pushed this population up (§5.2: NVLink/ECC\n"
      "  errors on hot 7B jobs) until the cooling was upgraded.\n");
  return bench::finish(obs_cli);
}
