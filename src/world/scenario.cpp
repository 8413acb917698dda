#include "world/scenario.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>

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
    if (std::stod(buf) == v) break;
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

bool parse_double(const std::string& raw, double* out) {
  try {
    std::size_t used = 0;
    *out = std::stod(raw, &used);
    return used == raw.size();
  } catch (...) {
    return false;
  }
}

// Digits only: std::stoull accepts a leading '-' and wraps it, so "-1" would
// otherwise parse as 2^64 - 1.
bool parse_u64(const std::string& raw, std::uint64_t* out) {
  if (raw.empty() || !std::all_of(raw.begin(), raw.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      }))
    return false;
  try {
    std::size_t used = 0;
    *out = std::stoull(raw, &used);
    return used == raw.size();
  } catch (...) {
    return false;
  }
}

struct Registry {
  std::mutex mu;
  std::map<std::string, ScenarioSpec> by_name;
};

Registry& registry() {
  static Registry* r = [] {
    auto* init = new Registry;
    for (const ScenarioSpec& preset :
         {seren_scenario(), kalos_scenario(), serve_seren_scenario(),
          colocated_seren_scenario(), hyperscale_small_scenario()})
      init->by_name[preset.name] = preset;
    return init;
  }();
  return *r;
}

// Every key scenario_from_json accepts, for the "did you mean" suggestion.
constexpr const char* kScenarioKeys[] = {
    "name",          "cluster",
    "scale",         "sample_interval_seconds",
    "seed",          "inject_failures",
    "failure_interval_scale", "auto_recovery",
    "ckpt_interval_seconds",  "async_ckpt",
    "fleet_samples", "pretrain",
    "serve_replicas",         "serve_gpus_per_replica",
    "serve_model",   "serve_rps",
    "serve_diurnal_amplitude", "serve_burst_multiplier",
    "serve_burst_fraction",    "serve_duration_seconds",
    "serve_slo_ttft_seconds",  "serve_slo_tpot_seconds",
    "node_count",    "topo_datacenters",
    "topo_pods_per_dc",        "topo_nodes_per_switch",
    "trace_multiplier",        "domain_failures",
    "domain_failure_interval_scale",
};

// Range-violation messages mirror unknown_key_message's "did you mean"
// style: a negative where a positive is required almost always means a
// dropped sign, so suggest the absolute value.
std::string range_message(const char* key, double v, const char* requirement) {
  std::ostringstream os;
  os << key << " must be " << requirement << ", got " << v;
  if (v < 0 && std::isfinite(v)) os << " (did you mean " << -v << "?)";
  return os.str();
}

std::string unknown_key_message(const std::string& key) {
  std::string best;
  std::size_t best_distance = 4;  // suggest only near-misses, like FlagSet
  for (const char* known : kScenarioKeys) {
    const std::size_t d = common::edit_distance(key, known);
    if (d < best_distance) {
      best_distance = d;
      best = known;
    }
  }
  std::string message = "unknown scenario key \"" + key + "\"";
  if (!best.empty()) message += " (did you mean \"" + best + "\"?)";
  return message;
}

}  // namespace

double ScenarioSpec::trace_divisor() const {
  ACME_CHECK_MSG(scale > 0, "scenario scale must be positive");
  return scale >= 1.0 ? scale : 1.0 / scale;
}

std::string ScenarioSpec::to_json() const {
  std::ostringstream out;
  out << "{\"name\":\"" << escape(name) << "\""
      << ",\"cluster\":\"" << escape(cluster) << "\""
      << ",\"scale\":" << number(scale)
      << ",\"sample_interval_seconds\":" << number(sample_interval_seconds)
      << ",\"seed\":" << seed
      << ",\"inject_failures\":" << (inject_failures ? "true" : "false")
      << ",\"failure_interval_scale\":" << number(failure_interval_scale)
      << ",\"auto_recovery\":" << (auto_recovery ? "true" : "false")
      << ",\"ckpt_interval_seconds\":" << number(ckpt_interval_seconds)
      << ",\"async_ckpt\":" << (async_ckpt ? "true" : "false")
      << ",\"fleet_samples\":" << fleet_samples
      << ",\"pretrain\":" << (pretrain ? "true" : "false")
      << ",\"serve_replicas\":" << serve_replicas
      << ",\"serve_gpus_per_replica\":" << serve_gpus_per_replica
      << ",\"serve_model\":\"" << escape(serve_model) << "\""
      << ",\"serve_rps\":" << number(serve_rps)
      << ",\"serve_diurnal_amplitude\":" << number(serve_diurnal_amplitude)
      << ",\"serve_burst_multiplier\":" << number(serve_burst_multiplier)
      << ",\"serve_burst_fraction\":" << number(serve_burst_fraction)
      << ",\"serve_duration_seconds\":" << number(serve_duration_seconds)
      << ",\"serve_slo_ttft_seconds\":" << number(serve_slo_ttft_seconds)
      << ",\"serve_slo_tpot_seconds\":" << number(serve_slo_tpot_seconds)
      << ",\"node_count\":" << node_count
      << ",\"topo_datacenters\":" << topo_datacenters
      << ",\"topo_pods_per_dc\":" << topo_pods_per_dc
      << ",\"topo_nodes_per_switch\":" << topo_nodes_per_switch
      << ",\"trace_multiplier\":" << number(trace_multiplier)
      << ",\"domain_failures\":" << (domain_failures ? "true" : "false")
      << ",\"domain_failure_interval_scale\":"
      << number(domain_failure_interval_scale)
      << "}";
  return out.str();
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

    const auto want_string = [&](std::string* field) {
      if (!is_string) return false;
      *field = raw;
      return true;
    };
    // std::stod happily parses "nan" and "inf"; neither is a meaningful
    // scenario number (NaN even defeats `x > 0` validation by comparing
    // false), so non-finite values are rejected here with their own message.
    bool nonfinite = false;
    const auto want_double = [&](double* field) {
      double v = 0;
      if (is_string || !parse_double(raw, &v)) return false;
      if (!std::isfinite(v)) {
        nonfinite = true;
        return false;
      }
      *field = v;
      return true;
    };
    const auto want_bool = [&](bool* field) {
      if (is_string || (raw != "true" && raw != "false")) return false;
      *field = raw == "true";
      return true;
    };
    const auto want_u64 = [&](std::uint64_t* field) {
      return !is_string && parse_u64(raw, field);
    };
    const auto want_int = [&](int* field) {
      std::uint64_t n = 0;
      if (is_string || !parse_u64(raw, &n) || n > 1000000) return false;
      *field = static_cast<int>(n);
      return true;
    };

    bool ok;
    if (key == "name") ok = want_string(&spec.name);
    else if (key == "cluster") ok = want_string(&spec.cluster);
    else if (key == "scale") ok = want_double(&spec.scale);
    else if (key == "sample_interval_seconds")
      ok = want_double(&spec.sample_interval_seconds);
    else if (key == "seed") ok = want_u64(&spec.seed);
    else if (key == "inject_failures") ok = want_bool(&spec.inject_failures);
    else if (key == "failure_interval_scale")
      ok = want_double(&spec.failure_interval_scale);
    else if (key == "auto_recovery") ok = want_bool(&spec.auto_recovery);
    else if (key == "ckpt_interval_seconds")
      ok = want_double(&spec.ckpt_interval_seconds);
    else if (key == "async_ckpt") ok = want_bool(&spec.async_ckpt);
    else if (key == "fleet_samples") {
      std::uint64_t n = 0;
      ok = want_u64(&n);
      spec.fleet_samples = static_cast<std::size_t>(n);
    } else if (key == "pretrain") ok = want_bool(&spec.pretrain);
    else if (key == "serve_replicas") ok = want_int(&spec.serve_replicas);
    else if (key == "serve_gpus_per_replica")
      ok = want_int(&spec.serve_gpus_per_replica);
    else if (key == "serve_model") ok = want_string(&spec.serve_model);
    else if (key == "serve_rps") ok = want_double(&spec.serve_rps);
    else if (key == "serve_diurnal_amplitude")
      ok = want_double(&spec.serve_diurnal_amplitude);
    else if (key == "serve_burst_multiplier")
      ok = want_double(&spec.serve_burst_multiplier);
    else if (key == "serve_burst_fraction")
      ok = want_double(&spec.serve_burst_fraction);
    else if (key == "serve_duration_seconds")
      ok = want_double(&spec.serve_duration_seconds);
    else if (key == "serve_slo_ttft_seconds")
      ok = want_double(&spec.serve_slo_ttft_seconds);
    else if (key == "serve_slo_tpot_seconds")
      ok = want_double(&spec.serve_slo_tpot_seconds);
    else if (key == "node_count") ok = want_int(&spec.node_count);
    else if (key == "topo_datacenters") ok = want_int(&spec.topo_datacenters);
    else if (key == "topo_pods_per_dc") ok = want_int(&spec.topo_pods_per_dc);
    else if (key == "topo_nodes_per_switch")
      ok = want_int(&spec.topo_nodes_per_switch);
    else if (key == "trace_multiplier") ok = want_double(&spec.trace_multiplier);
    else if (key == "domain_failures") ok = want_bool(&spec.domain_failures);
    else if (key == "domain_failure_interval_scale")
      ok = want_double(&spec.domain_failure_interval_scale);
    else {
      return bail(unknown_key_message(key));
    }
    if (!ok) {
      if (nonfinite)
        return bail("non-finite value for \"" + key + "\": " + raw +
                    " (scenario numbers must be finite)");
      return bail("bad value for \"" + key + "\": " + raw);
    }
  }
  p.skip_ws();
  if (p.i != json.size()) return bail("trailing garbage after scenario object");
  if (spec.cluster != "seren" && spec.cluster != "kalos")
    return bail("cluster must be \"seren\" or \"kalos\", got \"" +
                spec.cluster + "\"");
  if (!(spec.scale > 0))
    return bail(range_message("scale", spec.scale, "positive"));
  if (!(spec.failure_interval_scale > 0))
    return bail(range_message("failure_interval_scale",
                              spec.failure_interval_scale, "positive"));
  if (!(spec.ckpt_interval_seconds > 0))
    return bail(range_message("ckpt_interval_seconds",
                              spec.ckpt_interval_seconds, "positive"));
  if (spec.sample_interval_seconds < 0)
    return bail(range_message("sample_interval_seconds",
                              spec.sample_interval_seconds, ">= 0"));
  if (spec.serve_model != "7b" && spec.serve_model != "104b" &&
      spec.serve_model != "123b" && spec.serve_model != "moe")
    return bail("serve_model must be one of 7b, 104b, 123b, moe; got \"" +
                spec.serve_model + "\"");
  if (!spec.pretrain && !spec.serving())
    return bail("a serve-only scenario (pretrain=false) needs serve_replicas > 0");
  // Serve ranges are checked even when serving is off: a spec carrying a
  // poisoned serve field would otherwise blow up only when someone later
  // re-enables replicas on it.
  if (spec.serve_replicas < 0)
    return bail(range_message("serve_replicas",
                              static_cast<double>(spec.serve_replicas),
                              ">= 0"));
  if (spec.serve_gpus_per_replica <= 0)
    return bail("serve_gpus_per_replica must be positive");
  if (spec.serve_rps < 0)
    return bail(range_message("serve_rps", spec.serve_rps, ">= 0"));
  if (spec.serve_diurnal_amplitude < 0 || spec.serve_diurnal_amplitude > 1)
    return bail(range_message("serve_diurnal_amplitude",
                              spec.serve_diurnal_amplitude, "in [0, 1]"));
  if (spec.serve_burst_multiplier < 1)
    return bail(range_message("serve_burst_multiplier",
                              spec.serve_burst_multiplier, ">= 1"));
  if (spec.serve_burst_fraction < 0 || spec.serve_burst_fraction >= 1)
    return bail(range_message("serve_burst_fraction",
                              spec.serve_burst_fraction, "in [0, 1)"));
  if (!(spec.serve_duration_seconds > 0))
    return bail(range_message("serve_duration_seconds",
                              spec.serve_duration_seconds, "positive"));
  if (!(spec.serve_slo_ttft_seconds > 0))
    return bail(range_message("serve_slo_ttft_seconds",
                              spec.serve_slo_ttft_seconds, "positive"));
  if (!(spec.serve_slo_tpot_seconds > 0))
    return bail(range_message("serve_slo_tpot_seconds",
                              spec.serve_slo_tpot_seconds, "positive"));
  if (spec.topo_datacenters < 1)
    return bail(range_message("topo_datacenters",
                              static_cast<double>(spec.topo_datacenters),
                              ">= 1"));
  if (spec.topo_pods_per_dc < 1)
    return bail(range_message("topo_pods_per_dc",
                              static_cast<double>(spec.topo_pods_per_dc),
                              ">= 1"));
  if (spec.topo_nodes_per_switch < 0)
    return bail(range_message("topo_nodes_per_switch",
                              static_cast<double>(spec.topo_nodes_per_switch),
                              ">= 0"));
  if (!(spec.trace_multiplier >= 1.0) || spec.trace_multiplier > 4096.0)
    return bail(range_message("trace_multiplier", spec.trace_multiplier,
                              "in [1, 4096]"));
  if (!(spec.domain_failure_interval_scale > 0))
    return bail(range_message("domain_failure_interval_scale",
                              spec.domain_failure_interval_scale, "positive"));
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

void register_scenario(const ScenarioSpec& spec) {
  ACME_CHECK_MSG(!spec.name.empty(), "scenario needs a name");
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.by_name[spec.name] = spec;
}

std::optional<ScenarioSpec> find_scenario(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.by_name.find(name);
  if (it == r.by_name.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> scenario_names() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.by_name.size());
  for (const auto& [name, spec] : r.by_name) names.push_back(name);
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
