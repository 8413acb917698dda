// Fig 2: (a) CDF of GPU job duration and (b) CDF of GPU utilization across
// datacenters (Seren, Kalos vs Philly, Helios, PAI).
#include "bench_util.h"

using namespace acme;

int main(int argc, char** argv) {
  const bench::BenchCli obs_cli = bench::parse_cli(argc, argv, "bench_fig2_duration_util");
  bench::header("Fig 2(a)", "CDF of GPU job duration across datacenters");

  const auto seren_durations = trace::durations(bench::seren_replay().replay.jobs);
  const auto kalos_durations = trace::durations(bench::kalos_replay().replay.jobs);

  common::Rng rng(2);
  auto sample_profile = [&](const trace::DatacenterProfile& p) {
    common::SampleStats s;
    for (int i = 0; i < 60000; ++i) s.add(p.sample_duration(rng));
    return s;
  };
  const auto philly = sample_profile(trace::philly_profile());
  const auto helios = sample_profile(trace::helios_profile());
  const auto pai = sample_profile(trace::pai_profile());

  std::printf("%s\n",
              common::plot_lines(
                  {bench::cdf_series("Seren", seren_durations, 10, 1e6),
                   bench::cdf_series("Kalos", kalos_durations, 10, 1e6),
                   bench::cdf_series("Philly", philly, 10, 1e6),
                   bench::cdf_series("Helios", helios, 10, 1e6),
                   bench::cdf_series("PAI", pai, 10, 1e6)},
                  72, 18, true, "job duration (s)", "CDF")
                  .c_str());

  common::Table table({"Datacenter", "Median duration", "Mean duration"});
  auto row = [&](const char* name, const common::SampleStats& s) {
    table.add_row({name, common::format_duration(s.median()),
                   common::format_duration(s.mean())});
  };
  row("Seren", seren_durations);
  row("Kalos", kalos_durations);
  row("Philly", philly);
  row("Helios", helios);
  row("PAI", pai);
  std::printf("%s", table.render().c_str());

  bench::recap("Seren/Kalos median duration", "~2 min",
               common::format_duration(seren_durations.median()) + " / " +
                   common::format_duration(kalos_durations.median()));
  // Job-count weighted: Seren's 664K jobs dominate the 20K Kalos jobs.
  const double acme_avg =
      (seren_durations.mean() * 664.0 + kalos_durations.mean() * 20.0) / 684.0;
  bench::recap("Philly avg / Acme avg", "12.8x",
               common::Table::num(philly.mean() / acme_avg, 1) + "x");
  bench::recap("others' median / Acme median", "1.7~7.2x",
               common::Table::num(pai.median() / seren_durations.median(), 1) + "~" +
                   common::Table::num(philly.median() / seren_durations.median(), 1) +
                   "x");

  bench::header("Fig 2(b)", "CDF of GPU utilization across datacenters");
  auto seren_cfg =
      world::fleet_sampler_config(cluster::seren_spec(), bench::seren_replay());
  auto kalos_cfg =
      world::fleet_sampler_config(cluster::kalos_spec(), bench::kalos_replay());
  common::Rng urng(3);
  const auto seren_m = telemetry::FleetSampler(seren_cfg).sample(30000, urng);
  const auto kalos_m = telemetry::FleetSampler(kalos_cfg).sample(30000, urng);
  common::SampleStats philly_util, pai_util;
  for (int i = 0; i < 30000; ++i) {
    philly_util.add(trace::philly_profile().sample_util(urng));
    pai_util.add(trace::pai_profile().sample_util(urng));
  }
  std::printf("%s\n",
              common::plot_lines(
                  {bench::cdf_series_linear("Seren", seren_m.gpu_util, 0, 100),
                   bench::cdf_series_linear("Kalos", kalos_m.gpu_util, 0, 100),
                   bench::cdf_series_linear("Philly", philly_util, 0, 100),
                   bench::cdf_series_linear("PAI", pai_util, 0, 100)},
                  72, 18, false, "GPU utilization (%)", "CDF")
                  .c_str());
  bench::recap("median GPU util Seren/Kalos", "97% / 99%",
               common::Table::num(seren_m.gpu_util.median(), 0) + "% / " +
                   common::Table::num(kalos_m.gpu_util.median(), 0) + "%");
  bench::recap("median GPU util Philly/PAI", "48% / 4%",
               common::Table::num(philly_util.median(), 0) + "% / " +
                   common::Table::num(pai_util.median(), 0) + "%");
  return bench::finish(obs_cli);
}
