#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace acme::obs {

namespace {

constexpr double kSumGrain = 1e6;  // fixed-point microunits per unit

// Escapes a HELP string: backslash and newline (Prometheus text format §help).
std::string escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

// Escapes a label value: backslash, double-quote and newline.
std::string escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

// Shortest round-trippable decimal form: lowest %g precision whose strtod
// recovers the exact bits. Keeps bucket bounds readable (le="0.1", not
// le="0.10000000000000001") while the bytes stay a pure function of the bits.
std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string label_block(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first + "=\"" + escape_label(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

// `le` bucket block: existing labels plus the bound.
std::string bucket_block(const Labels& labels, double bound) {
  std::string le = std::isinf(bound) ? "+Inf" : format_value(bound);
  std::string out = "{";
  for (const auto& [k, v] : labels) out += k + "=\"" + escape_label(v) + "\",";
  out += "le=\"" + le + "\"}";
  return out;
}

std::string identity_key(const std::string& name, const Labels& labels) {
  return name + label_block(labels);
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1) {
  ACME_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must ascend");
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  sum_micro_.fetch_add(std::llround(value * kSumGrain),
                       std::memory_order_relaxed);
}

std::uint64_t Histogram::cumulative(std::size_t bucket) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bucket && i < counts_.size(); ++i)
    total += counts_[i].load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::count() const { return cumulative(counts_.size() - 1); }

double Histogram::sum() const {
  return static_cast<double>(sum_micro_.load(std::memory_order_relaxed)) /
         kSumGrain;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_micro_.store(0, std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_buckets(double start, double factor,
                                                   int count) {
  ACME_CHECK(start > 0 && factor > 1 && count > 0);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i, bound *= factor) out.push_back(bound);
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(const std::string& name,
                                                        const std::string& help,
                                                        const Labels& labels,
                                                        Kind kind) {
  const std::string key = identity_key(name, labels);
  auto [it, inserted] = entries_.try_emplace(key);
  Entry& e = it->second;
  if (inserted) {
    e.name = name;
    e.help = help;
    e.labels = labels;
    e.kind = kind;
  } else {
    ACME_CHECK_MSG(e.kind == kind, "metric re-registered as a different kind");
  }
  return e;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help,
                                  const Labels& labels) {
  std::lock_guard lock(mu_);
  Entry& e = find_or_create(name, help, labels, Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> upper_bounds,
                                      const Labels& labels) {
  std::lock_guard lock(mu_);
  Entry& e = find_or_create(name, help, labels, Kind::kHistogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  } else {
    ACME_CHECK_MSG(e.histogram->upper_bounds() == upper_bounds,
                   "histogram re-registered with a different bucket layout");
  }
  return *e.histogram;
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard lock(mu_);
  std::ostringstream out;
  std::string last_name;  // HELP/TYPE emitted once per metric family
  for (const auto& [key, e] : entries_) {
    if (e.name != last_name) {
      const char* type = e.kind == Kind::kCounter ? "counter" : "histogram";
      out << "# HELP " << e.name << " " << escape_help(e.help) << "\n";
      out << "# TYPE " << e.name << " " << type << "\n";
      last_name = e.name;
    }
    switch (e.kind) {
      case Kind::kCounter:
        out << e.name << label_block(e.labels) << " " << e.counter->value()
            << "\n";
        break;
      case Kind::kHistogram: {
        const auto& h = *e.histogram;
        const auto& bounds = h.upper_bounds();
        for (std::size_t i = 0; i < bounds.size(); ++i)
          out << e.name << "_bucket" << bucket_block(e.labels, bounds[i]) << " "
              << h.cumulative(i) << "\n";
        out << e.name << "_bucket"
            << bucket_block(e.labels, std::numeric_limits<double>::infinity())
            << " " << h.count() << "\n";
        out << e.name << "_sum" << label_block(e.labels) << " "
            << format_value(h.sum()) << "\n";
        out << e.name << "_count" << label_block(e.labels) << " " << h.count()
            << "\n";
        break;
      }
    }
  }
  return out.str();
}

bool MetricsRegistry::write_prometheus(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "[obs] cannot write %s\n", path.c_str());
    return false;
  }
  out << prometheus_text();
  return out.good();
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [key, e] : entries_) {
    if (e.counter) e.counter->reset();
    if (e.histogram) e.histogram->reset();
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

std::optional<std::vector<PromSample>> parse_prometheus(const std::string& text,
                                                        std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<std::vector<PromSample>> {
    if (error) *error = msg;
    return std::nullopt;
  };
  std::vector<PromSample> samples;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    PromSample sample;
    std::size_t pos = 0;
    while (pos < line.size() && (std::isalnum(static_cast<unsigned char>(line[pos])) ||
                                 line[pos] == '_' || line[pos] == ':'))
      ++pos;
    if (pos == 0) return fail("line " + std::to_string(lineno) + ": no metric name");
    sample.name = line.substr(0, pos);
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        std::size_t eq = line.find('=', pos);
        if (eq == std::string::npos || eq + 1 >= line.size() || line[eq + 1] != '"')
          return fail("line " + std::to_string(lineno) + ": malformed label");
        std::string key = line.substr(pos, eq - pos);
        std::string value;
        std::size_t i = eq + 2;  // past the opening quote
        for (; i < line.size() && line[i] != '"'; ++i) {
          if (line[i] == '\\' && i + 1 < line.size()) {
            ++i;
            if (line[i] == 'n') value += '\n';
            else value += line[i];  // \" and \\ unescape to the raw char
          } else {
            value += line[i];
          }
        }
        if (i >= line.size())
          return fail("line " + std::to_string(lineno) + ": unterminated label value");
        sample.labels.emplace_back(std::move(key), std::move(value));
        pos = i + 1;
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
      if (pos >= line.size())
        return fail("line " + std::to_string(lineno) + ": unterminated label block");
      ++pos;  // past '}'
    }
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size())
      return fail("line " + std::to_string(lineno) + ": missing value");
    const std::string value_str = line.substr(pos);
    if (value_str == "+Inf") sample.value = std::numeric_limits<double>::infinity();
    else if (value_str == "-Inf") sample.value = -std::numeric_limits<double>::infinity();
    else if (value_str == "NaN") sample.value = std::nan("");
    else {
      char* end = nullptr;
      sample.value = std::strtod(value_str.c_str(), &end);
      if (end == value_str.c_str() || *end != '\0')
        return fail("line " + std::to_string(lineno) + ": bad value '" + value_str + "'");
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace acme::obs
