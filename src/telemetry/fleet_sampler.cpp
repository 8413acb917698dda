#include "telemetry/fleet_sampler.h"

#include <algorithm>
#include <cmath>

#include "comm/collective.h"
#include "common/check.h"
#include "common/units.h"
#include "parallel/schedule.h"

namespace acme::telemetry {

using trace::WorkloadType;

namespace {

// Bucketed gradient sync overlaps with the backward pass, so the NICs are
// live during roughly this share of a pretraining step (the rest is forward
// compute, NVLink-only tensor-parallel traffic, and the optimizer).
constexpr double kGradSyncSpanFraction = 0.45;
// Share of SFT / debug jobs large enough to span nodes at all; the rest fit
// inside one NVLink island and never touch IB (Fig 9: most non-pretrain jobs
// are single-node).
constexpr double kMultiNodeSftShare = 0.15;
constexpr double kMultiNodeDebugShare = 0.05;

}  // namespace

FleetSampler::FleetSampler(FleetSamplerConfig config)
    : config_(std::move(config)),
      gpu_power_(cluster::GpuSpec{}),
      server_power_(config_.spec.node) {
  ACME_CHECK(config_.busy_fraction >= 0 && config_.busy_fraction <= 1);
  for (const auto& [type, weight] : config_.gputime_mix) {
    mix_types_.push_back(type);
    mix_weights_.push_back(weight);
  }
  ACME_CHECK_MSG(!mix_types_.empty(), "empty workload mix");

  // Derive per-type IB counter profiles from the fabric's collective costs,
  // anchored on the flagship 3D-parallel pretraining job: each node carries
  // gpus_per_node co-resident gradient rings, so its per-step IB volume is
  // the per-rank ring traffic times the node's GPU count, spread over the
  // backward span of the step.
  const comm::FabricConfig fabric = comm::fabric_from_cluster(config_.spec);
  parallel::PretrainExecutionModel exec(parallel::llm_123b(), fabric);
  const parallel::ThreeDConfig flagship;
  const double step = exec.step_3d(flagship).step_time();
  const int dp = flagship.data_parallel();
  const double grad_bytes =
      2.0 * exec.config().params() /
      (flagship.tensor_parallel * flagship.pipeline_parallel);
  const double ring_bytes = 2.0 * (dp - 1) / dp * grad_bytes;  // per rank
  const double per_node_bytes = config_.spec.node.gpus * ring_bytes;
  const double raw_line = common::gbps_to_Bps(config_.spec.node.nic_gbps) *
                          config_.spec.node.compute_nics;
  // Counters can never read above what collectives actually sustain.
  const double peak_frac =
      exec.collectives().topology().node_nic_bytes_per_sec() / raw_line;
  IbProfile pretrain;
  pretrain.duty = kGradSyncSpanFraction;
  pretrain.level =
      std::min(per_node_bytes / (step * raw_line) / pretrain.duty, peak_frac);
  pretrain.sd = pretrain.level / 3.0;
  ib_profiles_[WorkloadType::kPretrain] = pretrain;
  ib_profiles_[WorkloadType::kMLLM] = pretrain;
  // The multi-node minority of SFT / debug jobs runs the same collective
  // pattern at smaller scale; evaluation loads models through the storage
  // path and leaves the compute IB quiet.
  IbProfile sft = pretrain;
  sft.duty = pretrain.duty * kMultiNodeSftShare;
  ib_profiles_[WorkloadType::kSFT] = sft;
  IbProfile debug = pretrain;
  debug.duty = pretrain.duty * kMultiNodeDebugShare;
  debug.level = pretrain.level * 0.5;
  debug.sd = debug.level / 3.0;
  ib_profiles_[WorkloadType::kDebug] = debug;
  ib_profiles_[WorkloadType::kOther] = debug;
}

FleetSampler::IbProfile FleetSampler::ib_profile(WorkloadType type) const {
  const auto it = ib_profiles_.find(type);
  return it == ib_profiles_.end() ? IbProfile{} : it->second;
}

FleetSampler::GpuObservation FleetSampler::observe_gpu(WorkloadType type,
                                                       common::Rng& rng) const {
  GpuObservation o{};
  switch (type) {
    case WorkloadType::kPretrain:
    case WorkloadType::kMLLM:
      // Transformer pretraining saturates the coarse utilization counter
      // while the finer SM activity hovers near 40% (compute/communication
      // interleave); HBM is nearly full (ZeRO states + activations).
      o.util = std::clamp(rng.zig_normal(99.0, 1.5), 80.0, 100.0);
      o.sm = std::clamp(rng.zig_normal(0.42, 0.14), 0.05, 1.0);
      o.mem_gb = std::clamp(rng.zig_normal(61.0, 9.0), 20.0, 79.5);
      break;
    case WorkloadType::kSFT:
      o.util = std::clamp(rng.zig_normal(97.0, 4.0), 40.0, 100.0);
      o.sm = std::clamp(rng.zig_normal(0.38, 0.12), 0.05, 1.0);
      o.mem_gb = std::clamp(rng.zig_normal(55.0, 12.0), 10.0, 79.5);
      break;
    case WorkloadType::kEvaluation:
      // Inference alternates between generation bursts and idle phases
      // (model loading, metric computation — Fig 13), so samples land on
      // either side.
      if (rng.bernoulli(0.48)) {
        o.util = std::clamp(rng.zig_normal(95.0, 6.0), 30.0, 100.0);
        o.sm = std::clamp(rng.zig_normal(0.30, 0.10), 0.03, 1.0);
      } else {
        o.util = std::clamp(rng.zig_normal(4.0, 4.0), 0.0, 25.0);
        o.sm = std::clamp(rng.zig_normal(0.02, 0.02), 0.0, 0.2);
      }
      o.mem_gb = std::clamp(rng.zig_normal(28.0, 14.0), 2.0, 79.5);
      break;
    case WorkloadType::kDebug:
    case WorkloadType::kOther:
      o.util = rng.bernoulli(0.6) ? std::clamp(rng.zig_normal(90.0, 15.0), 0.0, 100.0)
                                  : std::clamp(rng.zig_normal(15.0, 15.0), 0.0, 100.0);
      o.sm = std::clamp(rng.zig_normal(0.25, 0.15), 0.0, 1.0);
      o.mem_gb = std::clamp(rng.zig_normal(35.0, 20.0), 1.0, 79.5);
      break;
  }
  return o;
}

double FleetSampler::tensor_activity(WorkloadType type, double sm,
                                     common::Rng& rng) {
  // Tensor-core pipes are busy for a per-type share of SM-active time.
  double lo = 0.3, hi = 0.7;  // debug / other
  switch (type) {
    case WorkloadType::kPretrain:
    case WorkloadType::kMLLM: lo = 0.55; hi = 0.85; break;
    case WorkloadType::kSFT: lo = 0.5; hi = 0.8; break;
    case WorkloadType::kEvaluation: lo = 0.4; hi = 0.7; break;
    case WorkloadType::kDebug:
    case WorkloadType::kOther: break;
  }
  return std::clamp(sm * rng.uniform(lo, hi), 0.0, 1.0);
}

double FleetSampler::power_w(const GpuObservation& o, common::Rng& rng) const {
  return gpu_power_.power_w(o.sm * (o.util / 100.0) * 2.0, o.mem_gb / 80.0, rng);
}

FleetMetrics FleetSampler::sample(std::size_t n, common::Rng& rng) const {
  FleetMetrics m;
  for (common::SampleStats* monitor : m.monitors()) monitor->reserve(n);
  const auto& node = config_.spec.node;
  for (std::size_t i = 0; i < n; ++i) {
    // Occupancy at this observation: diurnal-ish jitter around the mean.
    const double occ =
        config_.busy_fraction <= 0.0
            ? 0.0
            : std::clamp(config_.busy_fraction + rng.zig_normal(0.0, 0.08), 0.0, 1.0);
    const bool busy = rng.bernoulli(occ);

    GpuObservation o{};
    WorkloadType type = WorkloadType::kOther;
    if (busy) {
      type = mix_types_[rng.categorical(mix_weights_)];
      o = observe_gpu(type, rng);
      o.tc = tensor_activity(type, o.sm, rng);
    } else {
      o.util = rng.bernoulli(0.9) ? 0.0 : rng.uniform(0.0, 3.0);
      o.sm = 0.0;
      o.tc = 0.0;
      o.mem_gb = rng.uniform(0.0, 1.5);
    }
    m.gpu_util.add(o.util);
    m.sm_activity.add(o.sm);
    m.tc_activity.add(o.tc);
    m.gpu_mem_gb.add(o.mem_gb);

    const double power = power_w(o, rng);
    m.gpu_power_w.add(power);
    const double core = thermal_.core_temp_c(power, config_.ambient_temp_c, rng);
    m.gpu_core_temp_c.add(core);
    m.gpu_mem_temp_c.add(thermal_.mem_temp_c(core, rng));

    // Node-level metrics, sampled at the same cadence (one per observation).
    // Host memory: dataloaders + file-system cache + checkpoints stay well
    // under 50% even on busy pretraining nodes (Fig 7b, Fig 18).
    const double node_busy_gpus = occ * node.gpus;
    double host_mem_gb =
        20.0 + node_busy_gpus * rng.uniform(8.0, 22.0) + std::max(0.0, rng.zig_normal(20, 15));
    m.host_mem_frac.add(std::clamp(host_mem_gb / node.host_memory_gb, 0.0, 1.0));
    // CPUs: 16 CPUs per GPU, mostly idle dataloader workers.
    const double cpu_util =
        std::clamp(0.01 + 0.08 * occ * rng.uniform(0.3, 1.6), 0.0, 1.0);
    m.cpu_util.add(cpu_util);
    // IB: per-type collective traffic profile (idle >60% of the time;
    // bursts rarely exceed 25% of line rate). Send/recv overlap because
    // ring collectives are symmetric.
    double ib = 0.0;
    if (busy) {
      const IbProfile prof = ib_profile(type);
      if (prof.duty > 0 && rng.bernoulli(prof.duty))
        ib = std::clamp(rng.zig_normal(prof.level, prof.sd), 0.0, 0.45);
    }
    m.ib_send_frac.add(ib);
    m.ib_recv_frac.add(std::clamp(ib + rng.zig_normal(0.0, 0.004), 0.0, 1.0));

    // Server power: 8 GPUs at correlated load. Only power is read off the
    // node's GPUs, so their tensor activity is never drawn.
    double gpus_w = 0.0;
    for (int g = 0; g < node.gpus; ++g) {
      if (rng.bernoulli(occ)) {
        gpus_w += power_w(observe_gpu(type, rng), rng);
      } else {
        gpus_w += gpu_power_.power_w(0.0, 0.01, rng);
      }
    }
    m.server_power_w.add(server_power_.gpu_server(gpus_w, cpu_util).total());
  }
  return m;
}

}  // namespace acme::telemetry
