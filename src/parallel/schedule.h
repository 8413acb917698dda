// Pretraining step execution models (paper §4.1, Figs 10-12, 19, 20, 22).
//
// Two strategies, mirroring InternEvo V1 and V2:
//  - V1: 3D parallelism (tensor x pipeline x data) with the 1F1B pipeline
//    schedule. Bubbles ((p-1)/(m+p-1) of the pipeline span), tensor-parallel
//    collectives on the critical path, and a data-parallel gradient
//    all-reduce + optimizer step per iteration.
//  - V2: hierarchical ZeRO — parameter sharding confined to subgroups (64
//    GPUs) so all-gathers stay intra-group and overlap with compute, with
//    selective recomputation. Higher sustained SM activity, shorter steps.
//
// The models emit phase-structured step timelines that, sampled at 1 ms,
// reproduce the shape of the paper's DCGM SM-utilization profiles.
#pragma once

#include <string>
#include <vector>

#include "comm/collective.h"
#include "common/rng.h"
#include "parallel/model_math.h"

namespace acme::parallel {

struct Phase {
  std::string kind;   // "warmup", "steady", "cooldown", "grad-sync", "optim", ...
  double duration;    // seconds
  double sm_level;    // mean SM activity during the phase, 0..1
};

struct StepTimeline {
  std::vector<Phase> phases;
  double step_time() const;
  double mean_sm() const;   // time-weighted
  // Fraction of the step with SM activity below `threshold`.
  double idle_fraction(double threshold = 0.05) const;
  // Samples SM activity at `dt` resolution over `horizon` seconds, repeating
  // the step; `rng` adds counter noise around each phase level.
  std::vector<double> sample(double dt, double horizon, common::Rng& rng) const;
};

struct ThreeDConfig {
  int world = 2048;        // total GPUs
  int tensor_parallel = 8;
  int pipeline_parallel = 4;
  int micro_batches = 32;  // per pipeline round (m)
  int microbatch_size = 1; // sequences
  bool recompute = false;
  // Megatron-style sequence parallelism: partitions the residual-stream
  // activations across the tensor-parallel group.
  bool sequence_parallel = false;
  int data_parallel() const {
    return world / (tensor_parallel * pipeline_parallel);
  }
};

struct HierZeroConfig {
  int world = 2048;
  int shard_group = 64;    // parameter-sharding subgroup size
  int microbatch_size = 1;
  int accum_steps = 1;     // gradient accumulation micro-steps
  bool recompute = true;
  // Context parallelism for long-sequence pretraining (§7 future work):
  // splits each sequence across cp GPUs (ring attention style), dividing
  // per-GPU activation memory by cp at the cost of extra communication.
  int context_parallel = 1;
};

class PretrainExecutionModel {
 public:
  // Phase durations involving communication (tensor-parallel collectives,
  // gradient all-reduce, ZeRO all-gather/reduce-scatter) are derived from
  // `fabric`; the default is the Kalos fabric the paper's pretraining
  // analyses ran on.
  explicit PretrainExecutionModel(TransformerConfig cfg,
                                  comm::FabricConfig fabric = comm::kalos_fabric());

  const TransformerConfig& config() const { return cfg_; }
  const comm::CollectiveModel& collectives() const { return comm_; }

  // InternEvo V1: 3D parallelism with 1F1B.
  StepTimeline step_3d(const ThreeDConfig& pc) const;
  // InternEvo V2: hierarchical ZeRO.
  StepTimeline step_hier_zero(const HierZeroConfig& pc) const;
  // MoE on a single-NIC-per-node cluster (Fig 22): all-to-all dominated.
  StepTimeline step_moe(int world, double nic_bytes_per_sec) const;

  // RLHF iteration (paper §7 future work, "efficient RLHF"): a long rollout
  // generation phase (autoregressive decoding — memory-bound, low SM), then
  // reward/critic scoring, then a PPO training burst. The generation phase
  // dominates wall-clock while leaving most FLOPs idle — which is why the
  // paper calls RLHF out as needing dedicated system support.
  struct RlhfConfig {
    int world = 1024;
    int rollout_tokens = 512;   // generated tokens per prompt
    int prompts_per_gpu = 8;
    double decode_tokens_per_sec_per_gpu = 240.0;  // batched decoding rate
  };
  StepTimeline step_rlhf(const RlhfConfig& pc) const;

  // Per-pipeline-rank peak GPU memory (bytes) under 1F1B (Fig 12): rank r
  // holds min(m, p - r) in-flight microbatches of activations plus its
  // static shard.
  std::vector<double> per_rank_memory_1f1b(const ThreeDConfig& pc) const;

  // Static (params/grads/optimizer) per-GPU bytes for each strategy.
  double static_bytes_3d(const ThreeDConfig& pc) const;
  double static_bytes_hier_zero(const HierZeroConfig& pc) const;
  // Peak dynamic (activation) bytes per GPU.
  double activation_bytes_3d(const ThreeDConfig& pc) const;
  double activation_bytes_hier_zero(const HierZeroConfig& pc) const;

  // GPU memory snapshot over one step (Fig 11/20): allocated bytes sampled at
  // `samples` points, split into (static, dynamic) stacked values.
  struct MemorySnapshot {
    std::vector<double> time;           // seconds within the step
    std::vector<double> static_bytes;   // constant floor
    std::vector<double> dynamic_bytes;  // activations + transient grads
  };
  MemorySnapshot memory_snapshot_3d(const ThreeDConfig& pc, int samples = 240) const;
  MemorySnapshot memory_snapshot_hier_zero(const HierZeroConfig& pc,
                                           int samples = 240) const;

 private:
  // Seconds of compute for `tokens` tokens on `gpus` GPUs at sustained
  // efficiency `eff` of peak throughput.
  double compute_time(double flops, int gpus, double eff) const;

  TransformerConfig cfg_;
  comm::CollectiveModel comm_;
  double peak_flops_per_gpu_ = 312e12;  // A100 BF16 dense
};

}  // namespace acme::parallel
