// Six-month trace synthesizer.
//
// Generates a job stream from a ClusterWorkloadProfile: nonhomogeneous
// arrivals with diurnal/weekly rhythm, batched evaluation submissions (the
// paper notes evaluation trials are "submitted as a batch simultaneously"),
// per-type GPU demand, per-status runtimes.
#pragma once

#include "common/rng.h"
#include "trace/workload_profile.h"

namespace acme::trace {

struct SynthesizerOptions {
  std::uint64_t seed = 42;
  // Mean size of an evaluation submission batch (one checkpoint evaluated on
  // ~60 datasets yields bursts of similar trials).
  double eval_batch_mean = 40.0;
  bool include_cpu_jobs = true;
};

class TraceSynthesizer {
 public:
  TraceSynthesizer(ClusterWorkloadProfile profile, SynthesizerOptions options = {});

  // Generates the full trace, ordered by (submission time, job id).
  Trace generate() const;

  const ClusterWorkloadProfile& profile() const { return profile_; }

 private:
  double sample_duration(const TypeProfile& tp, JobStatus status,
                         common::Rng& rng) const;
  JobStatus sample_status(const TypeProfile& tp, common::Rng& rng) const;
  // Diurnal x weekly submission intensity in [0.25, 1.0]; t in seconds.
  static double arrival_intensity(double t);

  ClusterWorkloadProfile profile_;
  SynthesizerOptions options_;
};

}  // namespace acme::trace
