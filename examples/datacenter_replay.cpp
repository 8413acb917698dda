// Six-month datacenter characterization: synthesize both Acme clusters,
// replay them through their schedulers, export the trace to CSV, and print
// the paper's headline findings.
//
// Build & run:  ./build/examples/datacenter_replay [output.csv]
#include <cstdio>

#include "core/acme.h"

using namespace acme;

int main(int argc, char** argv) {
  std::printf("== six-month Acme replay (Seren at 1/8 job scale, Kalos full) ==\n");

  // Failure-free worlds: the trace replayed through the scheduler alone,
  // without the fleet-telemetry sampling this example never reads.
  const auto quiet_replay = [](world::ScenarioSpec spec) {
    spec.inject_failures = false;
    spec.fleet_samples = 0;
    return world::run_world(spec);
  };
  const auto seren = quiet_replay(world::seren_scenario());
  const auto kalos = quiet_replay(world::kalos_scenario());

  struct Entry {
    const char* name;
    const world::WorldReport* replay;
  };
  for (const auto& [name, replay] : {Entry{"Seren", &seren}, Entry{"Kalos", &kalos}}) {
    const auto& jobs = replay->replay.jobs;
    const auto shares = trace::type_shares(jobs);
    const auto statuses = trace::status_shares(jobs);
    std::printf("\n-- %s: %zu GPU jobs, occupancy %.0f%% --\n", name, jobs.size(),
                replay->busy_fraction * 100);
    std::printf("  median job duration:      %s\n",
                common::format_duration(trace::durations(jobs).median()).c_str());
    std::printf("  avg requested GPUs:       %.1f\n", trace::average_gpu_demand(jobs));
    std::printf("  pretraining:              %s of jobs, %s of GPU time\n",
                common::Table::pct(
                    shares.at(trace::WorkloadType::kPretrain).count_fraction)
                    .c_str(),
                common::Table::pct(
                    shares.at(trace::WorkloadType::kPretrain).gpu_time_fraction)
                    .c_str());
    std::printf("  evaluation:               %s of jobs, %s of GPU time\n",
                common::Table::pct(
                    shares.at(trace::WorkloadType::kEvaluation).count_fraction)
                    .c_str(),
                common::Table::pct(
                    shares.at(trace::WorkloadType::kEvaluation).gpu_time_fraction)
                    .c_str());
    std::printf("  failed jobs:              %s\n",
                common::Table::pct(
                    statuses.at(trace::JobStatus::kFailed).count_fraction)
                    .c_str());
    std::printf("  median eval queue delay:  %s (longest of all classes)\n",
                common::format_duration(
                    trace::queue_delays_of(jobs, trace::WorkloadType::kEvaluation)
                        .median())
                    .c_str());
    std::printf("  median pretrain delay:    %s (reservation working)\n",
                common::format_duration(
                    trace::queue_delays_of(jobs, trace::WorkloadType::kPretrain)
                        .median())
                    .c_str());
  }

  const std::string path = argc > 1 ? argv[1] : "/tmp/acme_seren_trace.csv";
  trace::write_csv_file(path, seren.replay.jobs);
  std::printf("\nSeren trace (with replayed queue delays) exported to %s\n",
              path.c_str());
  const auto back = trace::read_csv_file(path);
  std::printf("round-trip check: %zu rows re-read\n", back.size());
  return 0;
}
