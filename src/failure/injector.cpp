#include "failure/injector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/dist.h"
#include "common/units.h"

namespace acme::failure {

using common::LognormalFromStats;

FailureInjector::FailureInjector(std::uint64_t seed) : base_(seed) {}

double FailureInjector::sample_ttf(const FailureSpec& spec, common::Rng& rng) const {
  const LognormalFromStats dist(std::max(spec.ttf_median_min, 0.05),
                                std::max(spec.ttf_avg_min, 0.05));
  return dist.sample(rng) * common::kMinute;
}

double FailureInjector::sample_ttr(const FailureSpec& spec, common::Rng& rng) const {
  const LognormalFromStats dist(std::max(spec.ttr_median_min, 0.02),
                                std::max(spec.ttr_avg_min, 0.02));
  return dist.sample(rng) * common::kMinute;
}

int FailureInjector::sample_demand(const FailureSpec& spec, common::Rng& rng) const {
  const LognormalFromStats dist(std::max(spec.demand_median, 0.5),
                                std::max(spec.demand_avg, 0.5));
  const double raw = dist.sample(rng);
  // Snap to realistic request sizes: 1..8 exact, beyond that multiples of 8.
  if (raw <= 8.5) return std::max(1, static_cast<int>(std::lround(raw)));
  const int nodes = static_cast<int>(std::lround(raw / 8.0));
  return std::min(nodes * 8, 2048);
}

const FailureSpec* FailureInjector::pick(const std::vector<const FailureSpec*>& pool,
                                         common::Rng& rng) const {
  ACME_CHECK(!pool.empty());
  std::vector<double> weights;
  weights.reserve(pool.size());
  for (const auto* s : pool) weights.push_back(static_cast<double>(s->count));
  return pool[rng.categorical(weights)];
}

FailureEvent FailureInjector::sample(common::Rng& rng) const {
  std::vector<const FailureSpec*> pool;
  for (const auto& s : failure_table()) pool.push_back(&s);
  const FailureSpec* spec = pick(pool, rng);
  return {spec, sample_ttf(*spec, rng), sample_ttr(*spec, rng),
          sample_demand(*spec, rng)};
}

FailureEvent FailureInjector::sample_for_cluster(bool kalos, common::Rng& rng) const {
  std::vector<const FailureSpec*> pool;
  for (const auto& s : failure_table())
    if (kalos ? s.in_kalos : s.in_seren) pool.push_back(&s);
  const FailureSpec* spec = pick(pool, rng);
  return {spec, sample_ttf(*spec, rng), sample_ttr(*spec, rng),
          sample_demand(*spec, rng)};
}

namespace {

// Static mid-run pretraining pool: membership decided once by interned
// ReasonId (no per-call string compares) and the weights vector prebuilt,
// so the per-injection hot path allocates nothing. Row order matches the
// historical per-call scan, keeping the categorical stream bit-identical.
struct PretrainPool {
  std::vector<const FailureSpec*> specs;
  std::vector<double> weights;
};

const PretrainPool& pretrain_pool() {
  static const PretrainPool pool = [] {
    const ReasonId midrun_framework[] = {
        reason_id("Dataloader Killed"),
        reason_id("Out of Memory Error"),
        reason_id("Zero Division Error"),
    };
    PretrainPool p;
    for (const auto& s : failure_table()) {
      const bool midrun = s.id == midrun_framework[0] ||
                          s.id == midrun_framework[1] ||
                          s.id == midrun_framework[2];
      if (s.category == FailureCategory::kInfrastructure || midrun) {
        p.specs.push_back(&s);
        p.weights.push_back(static_cast<double>(s.count));
      }
    }
    return p;
  }();
  return pool;
}

}  // namespace

FailureEvent FailureInjector::sample_pretrain_failure(common::Rng& rng) const {
  // Mid-run pretraining failures: infrastructure rows plus the framework rows
  // the paper ties to long runs (Dataloader Killed, OOM, loss-scaling).
  const PretrainPool& pool = pretrain_pool();
  const FailureSpec* spec = pool.specs[rng.categorical(pool.weights)];
  return {spec, sample_ttf(*spec, rng), sample_ttr(*spec, rng)};
}

const DomainFailureSpec& FailureInjector::sample_domain_failure(
    common::Rng& rng) const {
  const auto& table = domain_failure_table();
  static const std::vector<double> weights = [] {
    std::vector<double> w;
    for (const auto& s : domain_failure_table())
      w.push_back(static_cast<double>(s.weight));
    return w;
  }();
  return table[rng.categorical(weights)];
}

double FailureInjector::sample_domain_ttf(const DomainFailureSpec& spec,
                                          common::Rng& rng) const {
  const LognormalFromStats dist(std::max(spec.ttf_median_min, 0.05),
                                std::max(spec.ttf_avg_min, 0.05));
  return dist.sample(rng) * common::kMinute;
}

double FailureInjector::sample_domain_ttr(const DomainFailureSpec& spec,
                                          common::Rng& rng) const {
  const LognormalFromStats dist(std::max(spec.ttr_median_min, 0.02),
                                std::max(spec.ttr_avg_min, 0.02));
  return dist.sample(rng) * common::kMinute;
}

}  // namespace acme::failure
