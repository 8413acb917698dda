#include "world/scenario.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>
#include <system_error>
#include <type_traits>
#include <variant>

#include "common/check.h"
#include "common/cli.h"
#include "trace/synthesizer.h"

namespace acme::world {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Shortest representation that round-trips a double (1e9 stays "1e+09", 0.125
// stays "0.125"); keeps scenario files diffable and the round-trip exact.
std::string number(double v) {
  // Integral values print as plain integers (900, not 9e+02).
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15)
    return std::to_string(static_cast<long long>(v));
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;  // stod throws on subnormals
  }
  return buf;
}

// Minimal strict parser for the flat JSON objects to_json emits: string,
// number and boolean values only, no nesting.
struct FlatParser {
  const std::string& text;
  std::size_t i = 0;
  std::string error;

  bool fail(const std::string& message) {
    error = message + " (at byte " + std::to_string(i) + ")";
    return false;
  }
  void skip_ws() {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  }
  bool expect(char c) {
    skip_ws();
    if (i >= text.size() || text[i] != c)
      return fail(std::string("expected '") + c + "'");
    ++i;
    return true;
  }
  bool parse_string(std::string* out) {
    skip_ws();
    if (i >= text.size() || text[i] != '"') return fail("expected string");
    ++i;
    out->clear();
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') {
        ++i;
        if (i >= text.size()) return fail("dangling escape");
      }
      out->push_back(text[i++]);
    }
    if (i >= text.size()) return fail("unterminated string");
    ++i;
    return true;
  }
  // Raw token for a scalar value; *is_string reports which kind it was.
  bool parse_scalar(std::string* raw, bool* is_string) {
    skip_ws();
    if (i < text.size() && text[i] == '"') {
      *is_string = true;
      return parse_string(raw);
    }
    *is_string = false;
    raw->clear();
    while (i < text.size() && text[i] != ',' && text[i] != '}' &&
           !std::isspace(static_cast<unsigned char>(text[i])))
      raw->push_back(text[i++]);
    if (raw->empty()) return fail("expected value");
    return true;
  }
};

// The whole token as a T. std::from_chars takes no leading '+' and, for an
// unsigned T, no '-' (std::stoull would wrap "-1" to 2^64 - 1), and fails
// on overflow.
template <typename T>
bool parse_whole(const std::string& raw, T* out) {
  const char* end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// The accepted values of a numeric field; `requirement` is the text its
// range error quotes (nullptr: every parsed value is accepted).
struct Range {
  double lo = -kInf;
  bool lo_open = false;  // lo itself is rejected
  double hi = kInf;
  const char* requirement = nullptr;

  bool contains(double v) const { return (lo_open ? v > lo : v >= lo) && v <= hi; }
};

constexpr Range kPositive{0, true, kInf, "positive"};
constexpr Range kNonNegative{0, false, kInf, ">= 0"};
constexpr Range kAtLeastOne{1, false, kInf, ">= 1"};

// One row per ScenarioSpec field, in to_json order. The member's type is the
// field's JSON kind: a string, a finite double, an int (digits only, at most
// 1,000,000), a u64 (digits only) or a bool.
struct Field {
  const char* key;
  std::variant<std::string ScenarioSpec::*, double ScenarioSpec::*,
               int ScenarioSpec::*, std::uint64_t ScenarioSpec::*,
               bool ScenarioSpec::*>
      member;
  Range range = {};
};

const Field kFields[] = {
    {"name", &ScenarioSpec::name},
    {"cluster", &ScenarioSpec::cluster},
    {"scale", &ScenarioSpec::scale, kPositive},
    {"sample_interval_seconds", &ScenarioSpec::sample_interval_seconds,
     kNonNegative},
    {"seed", &ScenarioSpec::seed},
    {"inject_failures", &ScenarioSpec::inject_failures},
    {"failure_interval_scale", &ScenarioSpec::failure_interval_scale,
     kPositive},
    {"auto_recovery", &ScenarioSpec::auto_recovery},
    {"ckpt_interval_seconds", &ScenarioSpec::ckpt_interval_seconds, kPositive},
    {"async_ckpt", &ScenarioSpec::async_ckpt},
    {"fleet_samples", &ScenarioSpec::fleet_samples},
    {"pretrain", &ScenarioSpec::pretrain},
    {"serve_replicas", &ScenarioSpec::serve_replicas},
    {"serve_rps", &ScenarioSpec::serve_rps, kNonNegative},
    {"serve_duration_seconds", &ScenarioSpec::serve_duration_seconds,
     kPositive},
    {"node_count", &ScenarioSpec::node_count},
    {"topo_datacenters", &ScenarioSpec::topo_datacenters, kAtLeastOne},
    {"topo_pods_per_dc", &ScenarioSpec::topo_pods_per_dc, kAtLeastOne},
    {"topo_nodes_per_switch", &ScenarioSpec::topo_nodes_per_switch},
    {"trace_multiplier", &ScenarioSpec::trace_multiplier,
     {1, false, 4096, "in [1, 4096]"}},
    {"domain_failures", &ScenarioSpec::domain_failures},
    {"domain_failure_interval_scale",
     &ScenarioSpec::domain_failure_interval_scale, kPositive},
};

void append_value(std::string* out, const std::string& v) {
  *out += '"' + escape(v) + '"';
}
void append_value(std::string* out, double v) { *out += number(v); }
void append_value(std::string* out, int v) { *out += std::to_string(v); }
void append_value(std::string* out, std::uint64_t v) {
  *out += std::to_string(v);
}
void append_value(std::string* out, bool v) { *out += v ? "true" : "false"; }

// Range-violation messages mirror unknown_key_message's "did you mean"
// style: a negative where a positive is required almost always means a
// dropped sign, so suggest the absolute value.
std::string range_message(const char* key, double v, const char* requirement) {
  std::ostringstream os;
  os << key << " must be " << requirement << ", got " << v;
  if (v < 0 && std::isfinite(v)) os << " (did you mean " << -v << "?)";
  return os.str();
}

// Parses `raw` into the field's member of *spec. Returns the error message,
// empty on success.
std::string assign(const Field& field, const std::string& raw, bool is_string,
                   ScenarioSpec* spec) {
  const auto bad = [&] {
    return "bad value for \"" + std::string(field.key) + "\": " + raw;
  };
  return std::visit(
      [&](auto member) -> std::string {
        auto& value = spec->*member;
        using T = std::remove_reference_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          if (!is_string) return bad();
          value = raw;
          return {};
        } else if constexpr (std::is_same_v<T, bool>) {
          if (is_string || (raw != "true" && raw != "false")) return bad();
          value = raw == "true";
          return {};
        } else {
          T v{};
          if constexpr (std::is_same_v<T, double>) {
            if (is_string || !parse_whole(raw, &v)) return bad();
            // std::from_chars happily parses "nan" and "inf"; neither is a
            // meaningful scenario number (NaN even defeats `x > 0`
            // validation by comparing false).
            if (!std::isfinite(v))
              return "non-finite value for \"" + std::string(field.key) +
                     "\": " + raw + " (scenario numbers must be finite)";
          } else {
            std::uint64_t n = 0;
            if (is_string || !parse_whole(raw, &n) ||
                (std::is_same_v<T, int> && n > 1000000))
              return bad();
            v = static_cast<T>(n);
          }
          const double d = static_cast<double>(v);
          if (!field.range.contains(d))
            return range_message(field.key, d, field.range.requirement);
          value = v;
          return {};
        }
      },
      field.member);
}

std::string unknown_key_message(const std::string& key) {
  std::string best;
  std::size_t best_distance = 4;  // suggest only near-misses, like FlagSet
  for (const Field& field : kFields) {
    const std::size_t d = common::edit_distance(key, field.key);
    if (d < best_distance) {
      best_distance = d;
      best = field.key;
    }
  }
  std::string message = "unknown scenario key \"" + key + "\"";
  if (!best.empty()) message += " (did you mean \"" + best + "\"?)";
  return message;
}

// The presets find_scenario resolves, in name order.
constexpr ScenarioSpec (*kPresets[])() = {
    colocated_seren_scenario, hyperscale_small_scenario, kalos_scenario,
    seren_scenario, serve_seren_scenario};

}  // namespace

double ScenarioSpec::trace_divisor() const {
  ACME_CHECK_MSG(scale > 0, "scenario scale must be positive");
  return scale >= 1.0 ? scale : 1.0 / scale;
}

std::string ScenarioSpec::to_json() const {
  std::string out = "{";
  for (const Field& field : kFields) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += field.key;
    out += "\":";
    std::visit([&](auto member) { append_value(&out, this->*member); },
               field.member);
  }
  return out + "}";
}

std::optional<ScenarioSpec> scenario_from_json(const std::string& json,
                                               std::string* error) {
  const auto bail = [&](const std::string& message) -> std::optional<ScenarioSpec> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  FlatParser p{json, 0, {}};
  if (!p.expect('{')) return bail(p.error);
  ScenarioSpec spec;
  p.skip_ws();
  bool first = true;
  std::vector<std::string> seen;
  while (true) {
    p.skip_ws();
    if (p.i < json.size() && json[p.i] == '}') {
      ++p.i;
      break;
    }
    if (!first && !p.expect(',')) return bail(p.error);
    first = false;
    std::string key, raw;
    bool is_string = false;
    if (!p.parse_string(&key)) return bail(p.error);
    if (!p.expect(':')) return bail(p.error);
    if (!p.parse_scalar(&raw, &is_string)) return bail(p.error);
    if (std::find(seen.begin(), seen.end(), key) != seen.end())
      return bail("duplicate scenario key \"" + key + "\"");
    seen.push_back(key);
    const auto field = std::find_if(std::begin(kFields), std::end(kFields),
                                    [&](const Field& f) { return key == f.key; });
    if (field == std::end(kFields)) return bail(unknown_key_message(key));
    if (std::string problem = assign(*field, raw, is_string, &spec);
        !problem.empty())
      return bail(problem);
  }
  p.skip_ws();
  if (p.i != json.size()) return bail("trailing garbage after scenario object");
  if (spec.cluster != "seren" && spec.cluster != "kalos")
    return bail("cluster must be \"seren\" or \"kalos\", got \"" +
                spec.cluster + "\"");
  if (!spec.pretrain && !spec.serving())
    return bail("a serve-only scenario (pretrain=false) needs serve_replicas > 0");
  // The DomainTree needs at least one node per pod; check against the node
  // count this spec resolves to so the failure surfaces at parse time.
  {
    const int nodes = spec.node_count > 0
                          ? spec.node_count
                          : (spec.kalos() ? cluster::kalos_spec().node_count
                                          : cluster::seren_spec().node_count);
    const long long pods = static_cast<long long>(spec.topo_datacenters) *
                           spec.topo_pods_per_dc;
    if (pods > nodes)
      return bail("topology has more pods (" + std::to_string(pods) +
                  ") than nodes (" + std::to_string(nodes) + ")");
  }
  return spec;
}

ScenarioSpec seren_scenario() {
  ScenarioSpec spec;
  spec.name = "seren";
  spec.cluster = "seren";
  spec.scale = 8.0;  // the characterization benches' usual 1/8 trace
  return spec;
}

ScenarioSpec kalos_scenario() {
  ScenarioSpec spec;
  spec.name = "kalos";
  spec.cluster = "kalos";
  spec.scale = 1.0;
  return spec;
}

ScenarioSpec serve_seren_scenario() {
  ScenarioSpec spec;
  spec.name = "serve-seren";
  spec.cluster = "seren";
  spec.pretrain = false;
  spec.inject_failures = false;  // clean SLO baseline; flip on for Table 3
  spec.serve_replicas = 16;
  // ~0.7x fleet capacity at the mean: healthy baseline, but the diurnal
  // peak in the MMPP burst state pushes past capacity by design.
  spec.serve_rps = 250.0;
  return spec;
}

ScenarioSpec colocated_seren_scenario() {
  ScenarioSpec spec;
  spec.name = "colocated-seren";
  spec.cluster = "seren";
  spec.scale = 8.0;
  spec.serve_replicas = 8;
  spec.serve_rps = 120.0;
  spec.serve_duration_seconds = 4.0 * 3600.0;
  return spec;
}

ScenarioSpec hyperscale_scenario(int n_gpus, int n_dcs) {
  ACME_CHECK_MSG(n_gpus >= 8 && n_dcs >= 1, "hyperscale needs gpus and dcs");
  ScenarioSpec spec;
  const int nodes = std::max(n_dcs, (n_gpus + 7) / 8);
  char name[64];
  std::snprintf(name, sizeof(name), "hyperscale-%dg-%ddc", nodes * 8, n_dcs);
  spec.name = name;
  spec.cluster = "seren";  // node hardware profile; the fleet size overrides
  spec.node_count = nodes;
  spec.topo_datacenters = n_dcs;
  // Rail-optimized pods of ~32 nodes under one PDU/spine block, 8-node
  // switch groups inside each pod.
  spec.topo_pods_per_dc = std::max(1, nodes / (n_dcs * 32));
  spec.topo_nodes_per_switch = 8;
  // ~5.7-day window at 1/32 of the six-month trace, with job volume scaled
  // to the fleet: a fleet 10x Seren's 2,288 GPUs hosts ~10x the jobs.
  spec.scale = 32.0;
  spec.trace_multiplier =
      std::max(1.0, std::floor(nodes * 8.0 / 2288.0 + 0.5));
  spec.domain_failures = true;
  // Compress the quarter-scale Table 2 inter-event times into the short
  // window so every run sees a handful of correlated outages.
  spec.domain_failure_interval_scale = 0.05;
  return spec;
}

ScenarioSpec hyperscale_small_scenario() {
  ScenarioSpec spec = hyperscale_scenario(8192, 2);
  spec.name = "hyperscale-small";
  spec.scale = 64.0;          // ~2.9-day window: fast enough for the oracles
  spec.trace_multiplier = 1.0;
  spec.domain_failure_interval_scale = 0.02;
  return spec;
}

std::optional<ScenarioSpec> find_scenario(const std::string& name) {
  for (const auto preset : kPresets) {
    ScenarioSpec spec = preset();
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const auto preset : kPresets) names.push_back(preset().name);
  return names;
}

ClusterInputs cluster_inputs(const ScenarioSpec& spec) {
  ACME_CHECK_MSG(spec.cluster == "seren" || spec.cluster == "kalos",
                 "unknown cluster in scenario");
  ClusterInputs inputs =
      spec.kalos()
          ? ClusterInputs{trace::kalos_profile(), cluster::kalos_spec(),
                          sched::kalos_scheduler_config(),
                          comm::kalos_fabric()}
          : ClusterInputs{trace::seren_profile(), cluster::seren_spec(),
                          sched::seren_scheduler_config(),
                          comm::seren_fabric()};
  // Hyperscale overrides: resize the fleet around the cluster's node
  // hardware profile and re-derive the fabric so tier links (spine,
  // long-haul) match the topology. Specs with all-default topology keep the
  // preset fabric object untouched, bit for bit.
  const cluster::DomainShape shape{spec.topo_datacenters,
                                   spec.topo_pods_per_dc,
                                   spec.topo_nodes_per_switch};
  if (spec.node_count > 0 || !shape.trivial()) {
    if (spec.node_count > 0) inputs.spec.node_count = spec.node_count;
    inputs.spec.topology = shape;
    inputs.fabric = comm::fabric_from_cluster(inputs.spec);
  }
  return inputs;
}

trace::Trace synthesize_trace(const ScenarioSpec& spec) {
  ClusterInputs inputs = cluster_inputs(spec);
  const double divisor = spec.trace_divisor();
  trace::ClusterWorkloadProfile profile =
      divisor > 1.0 ? trace::scaled(std::move(inputs.profile), divisor)
                    : std::move(inputs.profile);
  if (spec.trace_multiplier > 1.0)
    profile = trace::amplified(std::move(profile), spec.trace_multiplier);
  profile.cpu_jobs = 0;  // CPU jobs never touch the GPU scheduler
  trace::SynthesizerOptions options;
  options.seed = spec.seed;
  return trace::TraceSynthesizer(std::move(profile), options).generate();
}

}  // namespace acme::world
