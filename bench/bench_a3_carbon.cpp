// Appendix A.3: datacenter energy and carbon accounting for Seren.
#include "bench_util.h"

using namespace acme;

int main(int argc, char** argv) {
  const bench::BenchCli obs_cli = bench::parse_cli(argc, argv, "bench_a3_carbon");
  bench::header("Appendix A.3", "Energy and carbon emissions (Seren, one month)");

  // Integrate fleet power over a month at the replayed occupancy.
  common::Rng rng(33);
  const auto cfg =
      world::fleet_sampler_config(cluster::seren_spec(), bench::seren_replay());
  const auto metrics = telemetry::FleetSampler(cfg).sample(20000, rng);
  const double mean_server_w = metrics.server_power_w.mean();
  const int nodes = cluster::seren_spec().node_count;
  const double hours = 31 * 24.0;
  const double it_energy_mwh = mean_server_w * nodes * hours / 1e6;

  const cluster::CarbonModel carbon;
  const double facility_mwh = carbon.facility_energy_mwh(it_energy_mwh);
  const double emissions = carbon.emissions_tco2e(it_energy_mwh);

  common::Table table({"Quantity", "Value"});
  table.add_row({"mean GPU-server power", common::Table::num(mean_server_w, 0) + " W"});
  table.add_row({"GPU servers", std::to_string(nodes)});
  table.add_row({"IT energy (May)", common::Table::num(it_energy_mwh, 0) + " MWh"});
  table.add_row({"PUE", common::Table::num(carbon.pue, 2)});
  table.add_row({"facility energy", common::Table::num(facility_mwh, 0) + " MWh"});
  table.add_row({"carbon-free energy share", common::Table::pct(carbon.carbon_free_fraction)});
  table.add_row({"emission rate", common::Table::num(carbon.tco2e_per_mwh, 3) + " tCO2e/MWh"});
  table.add_row({"effective emissions", common::Table::num(emissions, 1) + " tCO2e"});
  std::printf("%s", table.render().c_str());

  bench::recap("Seren monthly energy", "~673 MWh",
               common::Table::num(it_energy_mwh, 0) + " MWh");
  bench::recap("effective emissions", "321.7 tCO2e (for 673 MWh)",
               common::Table::num(emissions, 1) + " tCO2e");
  bench::recap("paper's rate check: 673 MWh x 0.478", "321.7 tCO2e",
               common::Table::num(carbon.emissions_tco2e(673.0), 1) + " tCO2e");
  return bench::finish(obs_cli);
}
