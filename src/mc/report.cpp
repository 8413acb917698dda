#include "mc/report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

namespace acme::mc {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

void BenchReport::set_timing(const RunTiming& timing, std::size_t replicas) {
  timing_ = timing;
  replicas_ = replicas;
}

void BenchReport::add_metric(const std::string& name,
                             const MetricAggregator& agg,
                             const std::string& unit) {
  MetricSummary m;
  m.metric = name;
  m.unit = unit;
  m.mean = agg.mean();
  m.ci95 = agg.ci95();
  m.p50 = agg.p50();
  m.p90 = agg.p90();
  m.p99 = agg.p99();
  m.min = agg.min();
  m.max = agg.max();
  m.replicas = agg.count();
  metrics_.push_back(std::move(m));
}

std::string BenchReport::to_json() const {
  std::string out;
  out += "{\n  \"bench\": ";
  append_escaped(out, bench_);
  out += ",\n  \"replicas\": " + std::to_string(replicas_);
  out += ",\n  \"threads\": " + std::to_string(timing_.threads_used);
  out += ",\n  \"wall_seconds\": ";
  append_number(out, timing_.wall_seconds);
  out += ",\n  \"serial_seconds\": ";
  append_number(out, timing_.serial_seconds);
  out += ",\n  \"speedup\": ";
  append_number(out, timing_.speedup());
  out += ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"metric\": ";
    append_escaped(out, m.metric);
    if (!m.unit.empty()) {
      out += ", \"unit\": ";
      append_escaped(out, m.unit);
    }
    out += ", \"mean\": ";
    append_number(out, m.mean);
    out += ", \"ci95\": ";
    append_number(out, m.ci95);
    out += ", \"p50\": ";
    append_number(out, m.p50);
    out += ", \"p90\": ";
    append_number(out, m.p90);
    out += ", \"p99\": ";
    append_number(out, m.p99);
    out += ", \"min\": ";
    append_number(out, m.min);
    out += ", \"max\": ";
    append_number(out, m.max);
    out += ", \"replicas\": " + std::to_string(m.replicas);
    out += "}";
  }
  out += metrics_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool BenchReport::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "[mc] cannot open %s for writing\n", path.c_str());
    return false;
  }
  f << to_json();
  if (!f.good()) {
    std::fprintf(stderr, "[mc] short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

void add_mc_flags(common::FlagSet& flags, McCli& cli) {
  flags.add("--replicas", &cli.options.replicas,
            "number of Monte Carlo replicas");
  flags.add("--threads", &cli.options.threads,
            "worker threads (0 = hardware concurrency, 1 = serial)");
  flags.add("--seed", &cli.options.seed, "base seed for the replica streams");
  flags.add("--json", &cli.json_path, "write the BenchReport JSON here");
}

std::optional<McCli> parse_mc_cli_strict(int argc, char** argv,
                                         const ReplicationOptions& defaults,
                                         std::string* error) {
  McCli cli;
  cli.options = defaults;
  common::FlagSet flags(argc > 0 ? argv[0] : "bench");
  add_mc_flags(flags, cli);
  if (!flags.parse(argc, argv, error)) return std::nullopt;
  if (cli.options.replicas == 0) cli.options.replicas = 1;
  return cli;
}

std::string format_with_ci(double value, double ci95, const std::string& unit,
                           int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << value << " ±" << ci95;
  if (!unit.empty()) os << " " << unit;
  return os.str();
}

}  // namespace acme::mc
