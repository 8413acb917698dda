#include "trace/analysis.h"

#include <algorithm>

namespace acme::trace {

std::map<WorkloadType, Share> type_shares(const Trace& trace) {
  std::map<WorkloadType, Share> out;
  double jobs = 0, gpu_time = 0;
  for (const auto& j : trace) {
    if (!j.is_gpu_job()) continue;
    out[j.type].count_fraction += 1;
    out[j.type].gpu_time_fraction += j.gpu_time();
    jobs += 1;
    gpu_time += j.gpu_time();
  }
  for (auto& [type, share] : out) {
    if (jobs > 0) share.count_fraction /= jobs;
    if (gpu_time > 0) share.gpu_time_fraction /= gpu_time;
  }
  return out;
}

std::map<JobStatus, Share> status_shares(const Trace& trace) {
  std::map<JobStatus, Share> out;
  double jobs = 0, gpu_time = 0;
  for (const auto& j : trace) {
    if (!j.is_gpu_job()) continue;
    out[j.status].count_fraction += 1;
    out[j.status].gpu_time_fraction += j.gpu_time();
    jobs += 1;
    gpu_time += j.gpu_time();
  }
  for (auto& [status, share] : out) {
    if (jobs > 0) share.count_fraction /= jobs;
    if (gpu_time > 0) share.gpu_time_fraction /= gpu_time;
  }
  return out;
}

common::SampleStats durations(const Trace& trace) {
  common::SampleStats s;
  for (const auto& j : trace)
    if (j.is_gpu_job()) s.add(j.duration);
  return s;
}

common::SampleStats durations_of(const Trace& trace, WorkloadType type) {
  common::SampleStats s;
  for (const auto& j : trace)
    if (j.is_gpu_job() && j.type == type) s.add(j.duration);
  return s;
}

common::SampleStats queue_delays_of(const Trace& trace, WorkloadType type) {
  // World reports keep these samples for their lifetime: count first so the
  // buffer is exact-sized instead of up to 2x over after push_back growth.
  const auto match = [type](const JobRecord& j) {
    return j.is_gpu_job() && j.type == type;
  };
  common::SampleStats s;
  s.reserve(static_cast<std::size_t>(std::count_if(trace.begin(), trace.end(), match)));
  for (const auto& j : trace)
    if (match(j)) s.add(j.queue_delay);
  return s;
}

common::SampleStats demand_per_job(const Trace& trace) {
  common::SampleStats s;
  for (const auto& j : trace)
    if (j.is_gpu_job()) s.add(static_cast<double>(j.gpus));
  return s;
}

common::SampleStats demand_weighted_by_gpu_time(const Trace& trace) {
  common::SampleStats s;
  for (const auto& j : trace)
    if (j.is_gpu_job()) s.add_weighted(static_cast<double>(j.gpus), j.gpu_time());
  return s;
}

common::SampleStats demand_of(const Trace& trace, WorkloadType type) {
  common::SampleStats s;
  for (const auto& j : trace)
    if (j.is_gpu_job() && j.type == type) s.add(static_cast<double>(j.gpus));
  return s;
}

double average_gpu_demand(const Trace& trace) {
  double gpus = 0, jobs = 0;
  for (const auto& j : trace) {
    if (!j.is_gpu_job()) continue;
    gpus += j.gpus;
    jobs += 1;
  }
  return jobs > 0 ? gpus / jobs : 0;
}

double total_gpu_time(const Trace& trace) {
  double t = 0;
  for (const auto& j : trace)
    if (j.is_gpu_job()) t += j.gpu_time();
  return t;
}

}  // namespace acme::trace
