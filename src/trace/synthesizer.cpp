#include "trace/synthesizer.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "common/units.h"
#include "obs/obs.h"

namespace acme::trace {

using common::kDay;
using common::kHour;

namespace {

// Trace order: submission time, ties broken by job id. Ids are unique, so the
// order is total and any correct merge of ordered runs reproduces it exactly.
bool submitted_before(const JobRecord& a, const JobRecord& b) {
  if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
  return a.id < b.id;
}

// Merges the run out[mid, end), which one generator loop emitted, into the
// already-ordered prefix out[0, mid). The run's order is checked first: a loop
// change that breaks it must fail loudly, not mis-order the trace.
void merge_run(Trace& out, std::size_t mid) {
  const auto run = out.begin() + static_cast<std::ptrdiff_t>(mid);
  ACME_CHECK_MSG(std::is_sorted(run, out.end(), submitted_before),
                 "generator loop emitted records out of trace order");
  std::inplace_merge(out.begin(), run, out.end(), submitted_before);
}

}  // namespace

TraceSynthesizer::TraceSynthesizer(ClusterWorkloadProfile profile,
                                   SynthesizerOptions options)
    : profile_(std::move(profile)), options_(options) {
  ACME_CHECK(!profile_.types.empty());
  double total = 0;
  for (const auto& tp : profile_.types) total += tp.job_fraction;
  ACME_CHECK_MSG(total > 0.99 && total < 1.01, "type fractions must sum to ~1");
}

double TraceSynthesizer::arrival_intensity(double t) {
  // Diurnal: trough at night (~04:00), peak mid-afternoon. Weekly: weekend dip.
  const double day_phase = std::fmod(t, kDay) / kDay;  // 0 = midnight
  const double diurnal =
      0.625 + 0.375 * std::sin(2.0 * std::numbers::pi * (day_phase - 0.29));
  const int weekday = static_cast<int>(std::fmod(t / kDay, 7.0));
  const double weekly = (weekday >= 5) ? 0.6 : 1.0;
  return std::clamp(diurnal * weekly, 0.1, 1.0);
}

JobStatus TraceSynthesizer::sample_status(const TypeProfile& tp,
                                          common::Rng& rng) const {
  const double u = rng.uniform();
  if (u < tp.p_completed) return JobStatus::kCompleted;
  if (u < tp.p_completed + tp.p_failed) return JobStatus::kFailed;
  return JobStatus::kCanceled;
}

double TraceSynthesizer::sample_duration(const TypeProfile& tp, JobStatus status,
                                         common::Rng& rng) const {
  double scale = tp.completed_scale;
  if (status == JobStatus::kFailed) scale = tp.failed_scale;
  if (status == JobStatus::kCanceled) scale = tp.canceled_scale;
  // Floor at 5 seconds: even instant script errors occupy the job slot
  // briefly.
  return std::max(5.0, tp.duration.sample(rng) * scale);
}

Trace TraceSynthesizer::generate() const {
  common::Rng rng(options_.seed);
  common::Rng arrival_rng = rng.fork("arrivals");
  common::Rng type_rng = rng.fork("types");
  common::Rng job_rng = rng.fork("jobs");

  const std::size_t budget =
      profile_.gpu_jobs + (options_.include_cpu_jobs ? profile_.cpu_jobs : 0);
  ACME_OBS_SPAN_ARG("trace", "synthesize", "jobs", std::to_string(budget));
  const double horizon = profile_.trace_days * kDay;
  Trace out;
  out.reserve(budget);

  const bool campaigns_enabled = !profile_.pretrain_campaign_slots.empty();

  // Per-EVENT type weights: an evaluation event emits a whole batch of ~B
  // jobs, so its event weight is its job share divided by B to keep the job
  // mix calibrated. Pretraining jobs are generated as campaigns below (not as
  // independent arrivals) when a campaign budget is configured.
  std::vector<double> type_weights;
  type_weights.reserve(profile_.types.size());
  for (const auto& tp : profile_.types) {
    double divisor = 1.0;
    if (tp.type == WorkloadType::kEvaluation)
      divisor = std::max(1.0, options_.eval_batch_mean);
    double weight = tp.job_fraction / divisor;
    if (campaigns_enabled && tp.type == WorkloadType::kPretrain) weight = 0.0;
    type_weights.push_back(weight);
  }

  std::uint32_t next_id = 1;

  if (campaigns_enabled) {
    // Pretraining campaigns: carve the campaign GPU budget into concurrent
    // slots sized from the demand distribution; each slot runs back-to-back
    // resubmissions with short restart gaps (Table 3 TR medians are minutes)
    // and occasional long pauses (users adjusting configs after anomalies,
    // §A.1).
    common::Rng camp_rng = rng.fork("campaigns");
    const auto& ptp = profile_.type_profile(WorkloadType::kPretrain);
    const common::LognormalFromStats restart_gap(2 * common::kMinute,
                                                 40 * common::kMinute);
    for (int gpus : profile_.pretrain_campaign_slots) {
      double tc = camp_rng.uniform(0.0, 6 * kHour);  // staggered campaign start
      const ModelTagId tag = gpus >= 1024   ? kModelTag123B
                              : gpus >= 256 ? kModelTag104B
                                            : kModelTag7B;
      while (tc < horizon) {
        JobRecord job;
        job.id = next_id++;
        job.type = WorkloadType::kPretrain;
        job.gpus = gpus;
        job.cpus = gpus * 12;
        job.submit_time = tc;
        job.status = sample_status(ptp, job_rng);
        // Campaign runs are bounded by the checkpoint/evaluation cadence: no
        // single submission runs longer than a few days before a planned
        // restart or cancel.
        job.duration = std::min(sample_duration(ptp, job.status, job_rng),
                                5.0 * kDay);
        job.duration = std::min(job.duration, horizon - tc);
        job.model_tag_id = tag;
        out.push_back(job);
        double gap = restart_gap.sample(camp_rng);
        if (job.status == JobStatus::kCanceled && camp_rng.bernoulli(0.15))
          gap += camp_rng.uniform(2 * kHour, 24 * kHour);  // user pause
        tc += job.duration + gap;
      }
    }
    // Each slot is ordered on its own, but the slots interleave. The block is
    // ~1% of the trace, so a plain sort is cheap.
    std::sort(out.begin(), out.end(), submitted_before);
  }

  // GPU jobs: thinning-based nonhomogeneous Poisson process whose base rate
  // is chosen so the expected count matches the profile. Evaluation jobs
  // arrive in batches (checkpoint x ~60 datasets).
  const auto& eval_tp = profile_.type_profile(WorkloadType::kEvaluation);
  const double eval_frac = eval_tp.job_fraction;
  // Number of arrival events: non-eval jobs arrive singly; eval batches of
  // mean size B contribute B jobs per event, so fewer events are needed.
  const double n_gpu = static_cast<double>(profile_.gpu_jobs);
  const double n_events =
      n_gpu * ((1.0 - eval_frac) + eval_frac / std::max(1.0, options_.eval_batch_mean));
  // Mean thinning acceptance over one week, computed numerically so the
  // expected job count matches the profile.
  double mean_intensity = 0;
  {
    const int steps = 7 * 24 * 4;
    for (int i = 0; i < steps; ++i)
      mean_intensity += arrival_intensity((static_cast<double>(i) + 0.5) * 15 *
                                          common::kMinute);
    mean_intensity /= steps;
  }
  const double base_rate = n_events / (horizon * mean_intensity);

  const std::size_t poisson_begin = out.size();
  double t = 0;
  while (t < horizon && out.size() < profile_.gpu_jobs) {
    t += arrival_rng.exponential(base_rate);
    if (t >= horizon) break;
    if (!arrival_rng.bernoulli(arrival_intensity(t))) continue;  // thinning

    const auto& tp = profile_.types[type_rng.categorical(type_weights)];
    std::size_t batch = 1;
    if (tp.type == WorkloadType::kEvaluation) {
      // Geometric batch size with the configured mean.
      const double p = 1.0 / std::max(1.0, options_.eval_batch_mean);
      batch = 1;
      while (job_rng.uniform() > p && batch < 200) ++batch;
    }
    for (std::size_t b = 0; b < batch && out.size() < profile_.gpu_jobs; ++b) {
      JobRecord job;
      job.id = next_id++;
      job.type = tp.type;
      job.gpus = static_cast<int>(tp.gpu_demand.sample(job_rng));
      job.cpus = job.gpus * 12;  // leave headroom of the 16:1 CPU:GPU ratio
      job.submit_time = t;
      job.status = sample_status(tp, job_rng);
      job.duration = sample_duration(tp, job.status, job_rng);
      if (tp.type == WorkloadType::kPretrain)
        job.model_tag_id = job.gpus >= 1024   ? kModelTag123B
                           : job.gpus >= 256 ? kModelTag104B
                                             : kModelTag7B;
      out.push_back(job);
    }
  }
  merge_run(out, poisson_begin);

  if (options_.include_cpu_jobs) {
    common::Rng cpu_rng = rng.fork("cpu-jobs");
    const common::LognormalFromStats cpu_dur(60.0, 20 * common::kMinute);
    const double cpu_rate =
        static_cast<double>(profile_.cpu_jobs) / (horizon * mean_intensity);
    const std::size_t cpu_begin = out.size();
    double tc = 0;
    std::size_t made = 0;
    while (tc < horizon && made < profile_.cpu_jobs) {
      tc += cpu_rng.exponential(cpu_rate);
      if (tc >= horizon) break;
      if (!cpu_rng.bernoulli(arrival_intensity(tc))) continue;
      JobRecord job;
      job.id = next_id++;
      job.type = WorkloadType::kOther;
      job.gpus = 0;
      job.cpus = static_cast<int>(cpu_rng.uniform_int(1, 32));
      job.submit_time = tc;
      job.status = cpu_rng.bernoulli(0.6) ? JobStatus::kCompleted
                   : cpu_rng.bernoulli(0.85) ? JobStatus::kFailed
                                             : JobStatus::kCanceled;
      job.duration = std::max(1.0, cpu_dur.sample(cpu_rng));
      out.push_back(job);
      ++made;
    }
    merge_run(out, cpu_begin);
  }
  return out;
}

}  // namespace acme::trace
