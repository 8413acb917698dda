// Fleet-level monitor sampling (paper Fig 2b, Fig 7, Fig 8, Fig 9, Fig 21).
//
// Models what DCGM / Prometheus / IPMI observe across the cluster: for each
// (time, GPU) observation, the GPU is either idle or running a job of some
// workload type; per-type signal models then produce SM/TC activity, memory
// footprints, coarse GPU utilization, power and temperature. Calibration
// targets are listed in DESIGN.md §4 (median SM activity ~40%, polarized GPU
// utilization, Kalos median GPU memory 60 GB/75%, CPUs and IB underutilized,
// 30% of GPUs idle at 60 W, TDP excursions, HBM hotter than core).
#pragma once

#include <array>
#include <map>

#include "cluster/power.h"
#include "cluster/spec.h"
#include "common/rng.h"
#include "common/stats.h"
#include "trace/job.h"

namespace acme::telemetry {

struct FleetMetrics {
  common::SampleStats gpu_util;        // coarse NVML-style utilization, 0..100
  common::SampleStats sm_activity;     // DCGM PROF_SM_ACTIVE, 0..1
  common::SampleStats tc_activity;     // DCGM PROF_PIPE_TENSOR_ACTIVE, 0..1
  common::SampleStats gpu_mem_gb;      // DCGM DEV_FB_USED
  common::SampleStats host_mem_frac;   // host memory utilization, 0..1
  common::SampleStats cpu_util;        // 0..1
  common::SampleStats ib_send_frac;    // of peak NIC bandwidth, 0..1
  common::SampleStats ib_recv_frac;
  common::SampleStats gpu_power_w;
  common::SampleStats server_power_w;
  common::SampleStats gpu_core_temp_c;
  common::SampleStats gpu_mem_temp_c;

  // Every monitor above in declaration order, the order the world digest
  // folds them in.
  template <typename Self>
  static auto monitors_of(Self& m) {
    return std::array{&m.gpu_util,       &m.sm_activity,     &m.tc_activity,
                      &m.gpu_mem_gb,     &m.host_mem_frac,   &m.cpu_util,
                      &m.ib_send_frac,   &m.ib_recv_frac,    &m.gpu_power_w,
                      &m.server_power_w, &m.gpu_core_temp_c, &m.gpu_mem_temp_c};
  }
  auto monitors() { return monitors_of(*this); }
  auto monitors() const { return monitors_of(*this); }
};

struct FleetSamplerConfig {
  cluster::ClusterSpec spec;
  // Fraction of GPUs busy (time-averaged occupancy from the scheduler
  // replay); per-sample occupancy jitters around this.
  double busy_fraction = 0.8;
  // GPU-time mix across workload types: what a busy GPU is running.
  std::map<trace::WorkloadType, double> gputime_mix;
  double ambient_temp_c = 32.0;  // warm server room (paper §5.2, July 2023)
};

class FleetSampler {
 public:
  explicit FleetSampler(FleetSamplerConfig config);

  // Draws n (time, GPU) observations and accumulates every monitor metric.
  FleetMetrics sample(std::size_t n, common::Rng& rng) const;

 private:
  struct GpuObservation {
    double util;     // 0..100
    double sm;       // 0..1
    double tc;       // 0..1; observe_gpu leaves it 0
    double mem_gb;
  };
  // What a node's IB counters show for a GPU running workload `type`:
  // duty is the probability an observation lands inside a collective burst,
  // level the mean fraction of the raw NIC line rate while bursting. Both
  // are derived from comm::CollectiveModel traffic in the constructor.
  struct IbProfile {
    double duty = 0;
    double level = 0;
    double sd = 0.01;
  };
  // The signals GpuPowerModel consumes (utilization, SM activity, memory)
  // for a GPU running `type`.
  GpuObservation observe_gpu(trace::WorkloadType type, common::Rng& rng) const;
  // DCGM tensor-pipe activity: a per-type share of the SM activity `sm`.
  static double tensor_activity(trace::WorkloadType type, double sm,
                                common::Rng& rng);
  double power_w(const GpuObservation& o, common::Rng& rng) const;
  IbProfile ib_profile(trace::WorkloadType type) const;

  FleetSamplerConfig config_;
  std::map<trace::WorkloadType, IbProfile> ib_profiles_;
  std::vector<trace::WorkloadType> mix_types_;
  std::vector<double> mix_weights_;
  cluster::GpuPowerModel gpu_power_;
  cluster::GpuThermalModel thermal_;
  cluster::ServerPowerModel server_power_;
};

}  // namespace acme::telemetry
