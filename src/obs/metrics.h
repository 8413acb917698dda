// Self-observability metrics for the simulator itself (DESIGN.md §8).
//
// A small Prometheus-flavoured registry: counters and fixed-bucket
// histograms with text exposition. This observes the *program* —
// event-dispatch rates, queue depths, placement decisions — and is
// deliberately distinct from acme::telemetry, which models the *cluster's*
// monitoring stack (DCGM/IPMI/Prometheus signals of the simulated
// datacenter).
//
// Determinism contract: snapshots must be byte-identical across runs and
// across mc thread counts (tests/test_obs.cpp pins this). Counters and
// histogram bucket counts are integer atomics, whose concurrent increments
// commute; histogram sums are accumulated in fixed-point microunits (int64)
// for the same reason — floating-point addition does not commute, a
// fixed-point sum does.
//
// Instrumentation points cache the returned references in function-local
// statics; the registry never destroys a registered metric, so the handles
// stay valid for the life of the process (reset() zeroes values in place).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace acme::obs {

// Fixed label set attached to a metric at registration; part of its identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotone integer counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Histogram over a fixed bucket layout (upper bounds, ascending; an implicit
// +Inf bucket is appended). Observation is two relaxed atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);
  // Cumulative count of observations <= upper_bounds()[i] (Prometheus `le`
  // semantics); index upper_bounds().size() is the +Inf bucket == count().
  std::uint64_t cumulative(std::size_t bucket) const;
  std::uint64_t count() const;
  // Sum of observed values, rounded per observation to 1e-6 (the fixed-point
  // accumulation grain).
  double sum() const;
  const std::vector<double>& upper_bounds() const { return bounds_; }
  void reset();

  // Standard layout: `count` buckets starting at `start`, each `factor`
  // times the previous.
  static std::vector<double> exponential_buckets(double start, double factor,
                                                 int count);

 private:
  std::vector<double> bounds_;
  // counts_[i] is the per-bucket (non-cumulative) count; size bounds+1.
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::int64_t> sum_micro_{0};
};

// One exposition line parsed back from Prometheus text format.
struct PromSample {
  std::string name;    // metric name including any _bucket/_sum/_count suffix
  Labels labels;
  double value = 0;
};

// Parses Prometheus text exposition (as produced by MetricsRegistry). Returns
// nullopt and fills `error` on malformed input. Comment lines are skipped.
std::optional<std::vector<PromSample>> parse_prometheus(const std::string& text,
                                                        std::string* error = nullptr);

class MetricsRegistry {
 public:
  // Registration is idempotent: the same (name, labels) returns the same
  // object. Registering the same identity as a different metric kind (or a
  // histogram with a different bucket layout) throws CheckError.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upper_bounds, const Labels& labels = {});

  // Prometheus text exposition, metrics sorted by (name, labels) so the bytes
  // are a deterministic function of the recorded values.
  std::string prometheus_text() const;
  bool write_prometheus(const std::string& path) const;

  // Zeroes every registered metric in place; handles stay valid.
  void reset();
  std::size_t size() const;

 private:
  enum class Kind { kCounter, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& find_or_create(const std::string& name, const std::string& help,
                        const Labels& labels, Kind kind);

  mutable std::mutex mu_;
  // Keyed by name + serialized labels; ordered so exposition is sorted.
  std::map<std::string, Entry> entries_;
};

}  // namespace acme::obs
