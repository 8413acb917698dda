// Failure injection (paper §5): samples failure events whose reason mix,
// GPU demand, time-to-failure and time-to-restart reproduce Table 3.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "failure/taxonomy.h"

namespace acme::failure {

struct FailureEvent {
  const FailureSpec* spec = nullptr;
  double ttf_seconds = 0;   // runtime until the failure fires
  double ttr_seconds = 0;   // manual restart latency (without our system)
  int gpu_demand = 0;
};

class FailureInjector {
 public:
  explicit FailureInjector(std::uint64_t seed = 1);

  // Samples a complete failure event: reason weighted by Table 3 counts
  // (optionally restricted by cluster / category), then TTF/TTR/demand from
  // that row's lognormal fits.
  FailureEvent sample(common::Rng& rng) const;
  FailureEvent sample_for_cluster(bool kalos, common::Rng& rng) const;

  // For a long-running pretraining job: the reason mix is restricted to
  // failures observed mid-run on large jobs (infrastructure + heavyweight
  // framework rows), and only TTF/TTR are sampled (gpu_demand stays 0).
  FailureEvent sample_pretrain_failure(common::Rng& rng) const;

  // TTF sampler for a given reason (seconds).
  double sample_ttf(const FailureSpec& spec, common::Rng& rng) const;
  double sample_ttr(const FailureSpec& spec, common::Rng& rng) const;
  int sample_demand(const FailureSpec& spec, common::Rng& rng) const;

  // Correlated domain outages (domain_failure_table()): reason weighted by
  // the table, TTF/TTR from the row's lognormal fits (seconds). Driven by
  // the world's domain chain with its own rng stream.
  const DomainFailureSpec& sample_domain_failure(common::Rng& rng) const;
  double sample_domain_ttf(const DomainFailureSpec& spec,
                           common::Rng& rng) const;
  double sample_domain_ttr(const DomainFailureSpec& spec,
                           common::Rng& rng) const;

  common::Rng make_rng(const std::string& label) const { return base_.fork(label); }

 private:
  const FailureSpec* pick(const std::vector<const FailureSpec*>& pool,
                          common::Rng& rng) const;
  common::Rng base_;
};

}  // namespace acme::failure
