// Replica-level statistics for Monte Carlo replication: Welford moments with
// Student-t confidence intervals plus exact p50/p90/p99 over the retained
// replica values (common/stats.h). A study runs at most a few hundred
// replicas, so keeping every value costs kilobytes and buys exact quantiles.
//
// Aggregation is deterministic as long as values are added in replica order —
// ReplicationPlan guarantees that by collecting results per replica index and
// folding them serially after the parallel phase. The quantiles depend only
// on the multiset of values; the moments on their order.
#pragma once

#include <cstddef>

#include "common/stats.h"

namespace acme::mc {

// Per-metric summary: mean/CI from Welford moments, tail behaviour from the
// exact order statistics of the values seen so far.
class MetricAggregator {
 public:
  void add(double x);
  std::size_t count() const { return moments_.count(); }
  double mean() const { return moments_.mean(); }
  double stddev() const { return moments_.stddev(); }
  double min() const { return moments_.min(); }
  double max() const { return moments_.max(); }
  // Half-width of the t-based 95% confidence interval of the mean; 0 until
  // two values have been seen.
  double ci95() const { return common::ci95_halfwidth(moments_); }
  // Exact quantiles (linear interpolation between order statistics); 0 with
  // no values. Not safe for concurrent readers: SampleStats sorts its values
  // lazily inside these const calls, so read an aggregator from one thread
  // (ReplicationPlan reads after joining its workers).
  double p50() const { return values_.quantile(0.5); }
  double p90() const { return values_.quantile(0.9); }
  double p99() const { return values_.quantile(0.99); }

  const common::StreamingStats& moments() const { return moments_; }

 private:
  common::StreamingStats moments_;
  common::SampleStats values_;
};

}  // namespace acme::mc
