// JSON bench reports for Monte Carlo replication runs.
//
// Every converted bench emits one BenchReport: run-level timing (replicas,
// threads, wall/serial seconds, speedup) plus one record per metric
// {metric, mean, ci95, p50, p90, p99, min, max, replicas}. Reports are written
// as pretty-printed JSON so BENCH_*.json files diff cleanly and downstream
// tooling can track a perf trajectory across commits.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "mc/aggregate.h"
#include "mc/replication.h"

namespace acme::mc {

struct MetricSummary {
  std::string metric;
  std::string unit;  // optional, "" when dimensionless
  double mean = 0;
  double ci95 = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double min = 0;
  double max = 0;
  std::size_t replicas = 0;
};

class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  void set_timing(const RunTiming& timing, std::size_t replicas);
  void add_metric(const std::string& name, const MetricAggregator& agg,
                  const std::string& unit = "");

  const std::string& bench() const { return bench_; }
  const std::vector<MetricSummary>& metrics() const { return metrics_; }
  const RunTiming& timing() const { return timing_; }

  // Serializes the full report. Non-finite numbers are emitted as null so the
  // output is always valid JSON.
  std::string to_json() const;
  // Writes to_json() to `path`; returns false (and prints a warning) on I/O
  // failure instead of throwing — bench output must not die on a bad path.
  bool write(const std::string& path) const;

 private:
  std::string bench_;
  std::size_t replicas_ = 0;
  RunTiming timing_;
  std::vector<MetricSummary> metrics_;
};

// Command-line options shared by the converted benches:
//   --replicas N   number of Monte Carlo replicas (default per bench)
//   --threads K    worker threads (0 = hardware concurrency, 1 = serial)
//   --seed S       base seed for the replica streams
//   --json PATH    write the BenchReport JSON here
// Unknown flags, missing values and stray positionals are parse errors —
// silently ignoring them masked typos like `--replica` for `--replicas`.
struct McCli {
  ReplicationOptions options;
  std::string json_path;
};

// Registers the four shared flags on `flags`, writing through to `cli` (which
// must outlive parsing). bench_util.h composes these with the obs flags into
// one strict FlagSet so a bench has a single flat flag namespace.
void add_mc_flags(common::FlagSet& flags, McCli& cli);

// Strict parse: returns nullopt and fills `error` on an unknown flag, a bad
// or missing value, or a positional argument; never exits. `--replicas 0`
// clamps to 1.
std::optional<McCli> parse_mc_cli_strict(int argc, char** argv,
                                         const ReplicationOptions& defaults,
                                         std::string* error = nullptr);

// Formats "v ±ci" with a unit suffix, e.g. "12.3 ±0.8 s".
std::string format_with_ci(double value, double ci95, const std::string& unit,
                           int precision = 2);

}  // namespace acme::mc
