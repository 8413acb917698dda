// Fig 9: average power split across hardware modules in Seren GPU servers.
#include "bench_util.h"

using namespace acme;

int main(int argc, char** argv) {
  const bench::BenchCli obs_cli = bench::parse_cli(argc, argv, "bench_fig9_power_breakdown");
  bench::header("Fig 9", "Average power distribution of GPU-server modules");

  // Average over the fleet's operating points: GPUs at their fleet-mean
  // power, CPUs at their fleet-mean utilization.
  common::Rng rng(9);
  const auto cfg =
      world::fleet_sampler_config(cluster::seren_spec(), bench::seren_replay());
  const auto metrics = telemetry::FleetSampler(cfg).sample(20000, rng);
  cluster::ServerPowerModel model(cluster::seren_spec().node);
  const auto split =
      model.gpu_server(8.0 * metrics.gpu_power_w.mean(), metrics.cpu_util.mean());

  common::Table table({"Module", "Power (W)", "Share"});
  const double total = split.total();
  auto row = [&](const char* name, double watts) {
    table.add_row({name, common::Table::num(watts, 0),
                   common::Table::pct(watts / total)});
  };
  row("GPUs", split.gpu_w);
  row("CPUs", split.cpu_w);
  row("PSU conversion loss", split.psu_loss_w);
  row("DRAM", split.memory_w);
  row("Fans", split.fan_w);
  row("NIC/storage/other", split.nic_storage_other_w);
  std::printf("%s", table.render().c_str());
  std::printf("%s", common::plot_bars({{"GPUs", split.gpu_w},
                                       {"CPUs", split.cpu_w},
                                       {"PSU loss", split.psu_loss_w},
                                       {"DRAM", split.memory_w},
                                       {"Fans", split.fan_w},
                                       {"Other", split.nic_storage_other_w}},
                                      44, "W")
                        .c_str());

  bench::recap("GPU share of server power", "~2/3",
               common::Table::pct(split.gpu_w / total));
  bench::recap("CPU share", "11.2%", common::Table::pct(split.cpu_w / total));
  bench::recap("PSU loss share", "9.6%",
               common::Table::pct(split.psu_loss_w / total));
  return bench::finish(obs_cli);
}
