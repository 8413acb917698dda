#include "parallel/schedule.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace acme::parallel {

namespace {

// Fraction of the data-parallel gradient all-reduce hidden under the backward
// pass (bucketed async all-reduce; only the tail buckets are exposed).
constexpr double kGradAllreduceOverlap = 0.75;
// Fraction of the hierarchical-ZeRO parameter all-gather / gradient
// reduce-scatter hidden by prefetch (the design point of InternEvo V2:
// intra-subgroup collectives overlap with compute almost entirely).
constexpr double kZeroCommOverlap = 0.90;
// At most this share of the steady 1F1B span can be re-attributed to the
// tensor-parallel stall phase; the sustained-efficiency constant already
// prices the collectives in, so carving more would double-count. Wire time
// beyond the cap (a tp group wider than one NVLink island) extends the step
// instead.
constexpr double kTpStallCarveCap = 0.30;

}  // namespace

double StepTimeline::step_time() const {
  double t = 0;
  for (const auto& p : phases) t += p.duration;
  return t;
}

double StepTimeline::mean_sm() const {
  double t = 0, acc = 0;
  for (const auto& p : phases) {
    t += p.duration;
    acc += p.duration * p.sm_level;
  }
  return t > 0 ? acc / t : 0;
}

double StepTimeline::idle_fraction(double threshold) const {
  double t = 0, idle = 0;
  for (const auto& p : phases) {
    t += p.duration;
    if (p.sm_level < threshold) idle += p.duration;
  }
  return t > 0 ? idle / t : 0;
}

std::vector<double> StepTimeline::sample(double dt, double horizon,
                                         common::Rng& rng) const {
  ACME_CHECK(dt > 0 && horizon > 0 && !phases.empty());
  const double step = step_time();
  ACME_CHECK(step > 0);
  const auto count = static_cast<std::size_t>(horizon / dt);
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) * dt;
    double in_step = std::fmod(t, step);
    double level = 0;
    for (const auto& p : phases) {
      if (in_step < p.duration) {
        level = p.sm_level;
        break;
      }
      in_step -= p.duration;
    }
    // DCGM counter jitter; compute phases fluctuate more than idle ones.
    const double noise = level > 0.05 ? rng.normal(0.0, 0.05) : rng.normal(0.0, 0.005);
    out.push_back(std::clamp(level + noise, 0.0, 1.0));
  }
  return out;
}

PretrainExecutionModel::PretrainExecutionModel(TransformerConfig cfg,
                                               comm::FabricConfig fabric)
    : cfg_(std::move(cfg)), comm_(std::move(fabric)) {}

double PretrainExecutionModel::compute_time(double flops, int gpus, double eff) const {
  return flops / (static_cast<double>(gpus) * peak_flops_per_gpu_ * eff);
}

StepTimeline PretrainExecutionModel::step_3d(const ThreeDConfig& pc) const {
  ACME_CHECK(pc.world % (pc.tensor_parallel * pc.pipeline_parallel) == 0);
  const int p = pc.pipeline_parallel;
  const int m = pc.micro_batches;
  // Global tokens per step: dp replicas x m microbatches x mb sequences.
  const double tokens = static_cast<double>(pc.data_parallel()) * m *
                        pc.microbatch_size * cfg_.seq_len;
  double flops = cfg_.train_flops_per_token() * tokens;
  if (pc.recompute) flops *= 4.0 / 3.0;  // extra forward pass
  // TP collectives on the critical path cut sustained efficiency (paper: V1's
  // "relatively low utilization ... due to the impact of communication").
  const double compute = compute_time(flops, pc.world, 0.38);

  // 1F1B structure: total pipeline span = compute x (m + p - 1)/m; the extra
  // (p-1)/m share is bubble. We emit warmup (ramping), steady, cooldown.
  const double per_mb = compute / m;             // one fwd+bwd microbatch slot
  const double warmup = per_mb * (p - 1) * 0.5;  // ramping halves occupancy
  const double steady = compute - per_mb * (p - 1) * 0.0;  // full 1F1B body
  const double cooldown = per_mb * (p - 1) * 0.5;

  // Tensor-parallel collectives on one pipeline stage's critical path: four
  // ring all-reduces per layer per microbatch (attention + MLP, forward +
  // backward) of the microbatch activations, confined to the tp group's
  // NVLink island. Sequence parallelism swaps each all-reduce for an
  // all-gather + reduce-scatter pair with identical ring traffic.
  const int layers_per_stage = cfg_.layers / p;
  comm::World tp_world;
  tp_world.gpus = pc.tensor_parallel;
  const double act_bytes =
      2.0 * pc.microbatch_size * cfg_.seq_len * cfg_.hidden;
  const double tp_wire =
      4.0 * layers_per_stage * m * comm_.all_reduce(tp_world, act_bytes).seconds();
  // The sustained-efficiency constant already pays for healthy-fabric
  // collectives, so the stall is carved out of the steady span up to a cap;
  // wire time beyond the cap (e.g. a tp group spilling onto IB) extends the
  // step.
  const double carved = std::min(tp_wire, kTpStallCarveCap * steady);
  const double body = steady * 0.92 - carved;

  // Gradient all-reduce across dp and the optimizer step close the step.
  // Each ring places one rank per node (the tp x pp replica fills whole
  // nodes) and shares the node's NICs with the other co-resident rings.
  const double grad_bytes = 2.0 * cfg_.params() / (pc.tensor_parallel * p);
  const int model_ranks = pc.tensor_parallel * p;
  const int per_node = comm_.topology().gpus_per_node();
  comm::World dp_world;
  dp_world.gpus = pc.data_parallel();
  dp_world.ranks_per_node = std::max(1, per_node / model_ranks);
  dp_world.nic_share = std::min(per_node, model_ranks);
  const double ar_wire = comm_.all_reduce(dp_world, grad_bytes).seconds();
  const double allreduce = ar_wire * (1.0 - kGradAllreduceOverlap);
  const double optim = compute * 0.035;

  StepTimeline tl;
  tl.phases.push_back({"warmup-bubble", warmup, 0.22});
  tl.phases.push_back({"steady-1f1b", body * (0.46 / 0.84), 0.52});
  tl.phases.push_back({"tp-comm-stall", tp_wire, 0.08});
  tl.phases.push_back({"steady-1f1b", body * (0.38 / 0.84), 0.50});
  tl.phases.push_back({"pp-bubble", steady * 0.08, 0.03});
  tl.phases.push_back({"cooldown-bubble", cooldown, 0.20});
  tl.phases.push_back({"grad-allreduce", allreduce, 0.04});
  tl.phases.push_back({"optimizer", optim, 0.30});
  return tl;
}

StepTimeline PretrainExecutionModel::step_hier_zero(const HierZeroConfig& pc) const {
  ACME_CHECK(pc.world % pc.context_parallel == 0);
  // With context parallelism, cp GPUs cooperate on each sequence, so the
  // data-parallel width (and tokens per step) shrinks by cp.
  const double tokens = static_cast<double>(pc.world / pc.context_parallel) *
                        pc.accum_steps * pc.microbatch_size * cfg_.seq_len;
  double flops = cfg_.train_flops_per_token() * tokens;
  if (pc.recompute) flops *= 4.0 / 3.0;
  // All-gathers stay within the 64-GPU shard subgroup (NVLink-heavy) and are
  // prefetched, so sustained efficiency is higher; ~16% faster end-to-end
  // than V1 at the same global batch (paper Fig 10). Ring-attention exchanges
  // shave efficiency as cp grows.
  const double cp_penalty = 1.0 - 0.03 * std::log2(static_cast<double>(pc.context_parallel));
  const double compute = compute_time(flops, pc.world, 0.52 * std::max(0.3, cp_penalty));

  // Parameter all-gathers (forward + backward) and the gradient
  // reduce-scatter run hierarchically inside the shard subgroup — intra-node
  // NVLink stage, then inter-node IB — and are mostly hidden by prefetch;
  // only the exposed residue shows up in the timeline.
  comm::World shard_world;
  shard_world.gpus = pc.shard_group;
  const double param_bytes = 2.0 * cfg_.params();
  const double ag_wire =
      2.0 * comm_.all_gather(shard_world, param_bytes, comm::Algorithm::kHierarchical)
                .seconds();
  const double rs_wire =
      comm_.reduce_scatter(shard_world, param_bytes, comm::Algorithm::kHierarchical)
          .seconds();
  const double exposed_ag = ag_wire * (1.0 - kZeroCommOverlap);
  const double reduce_scatter = rs_wire * (1.0 - kZeroCommOverlap);
  const double optim = compute * 0.03;

  StepTimeline tl;
  // Prefetched all-gather keeps SM high with brief per-accum dips; the dips
  // re-attribute part of the compute span rather than extending it.
  const int chunks = std::max(8, pc.accum_steps);
  const double body = compute / chunks;
  const double dip = std::min(exposed_ag, 0.3 * compute) / chunks;
  for (int i = 0; i < chunks; ++i) {
    tl.phases.push_back({"fwd-bwd-overlap", body - dip, 0.60});
    tl.phases.push_back({"allgather-dip", dip, 0.25});
  }
  tl.phases.push_back({"reduce-scatter", reduce_scatter, 0.06});
  tl.phases.push_back({"optimizer", optim, 0.32});
  return tl;
}

StepTimeline PretrainExecutionModel::step_moe(int world,
                                              double nic_bytes_per_sec) const {
  ACME_CHECK(cfg_.moe);
  // Expert parallelism: every layer routes tokens all-to-all across nodes.
  // With one shared NIC per 8 GPUs (Seren), the all-to-all dominates the
  // step (Appendix A.6: "our single IB NIC server cannot efficiently handle
  // such job").
  const double tokens = static_cast<double>(world) * cfg_.seq_len;
  const double flops = cfg_.train_flops_per_token() * tokens;
  const double compute = compute_time(flops, world, 0.40);
  // Per layer: tokens/world per GPU, hidden-size fp16 payload, twice per
  // direction, twice per layer (dispatch + combine), through 1/8 NIC share.
  const double bytes_per_gpu_layer = cfg_.seq_len * cfg_.hidden * 2.0 * 2.0 * 2.0;
  const double a2a_per_layer = bytes_per_gpu_layer / (nic_bytes_per_sec / 8.0);
  const double a2a = a2a_per_layer * cfg_.layers;

  StepTimeline tl;
  const int segs = 8;
  for (int i = 0; i < segs; ++i) {
    tl.phases.push_back({"expert-compute", compute / segs, 0.38});
    tl.phases.push_back({"all-to-all", a2a / segs, 0.03});
  }
  tl.phases.push_back({"grad-sync", compute * 0.1, 0.05});
  tl.phases.push_back({"optimizer", compute * 0.05, 0.25});
  return tl;
}

StepTimeline PretrainExecutionModel::step_rlhf(const RlhfConfig& pc) const {
  ACME_CHECK(pc.world > 0 && pc.rollout_tokens > 0 && pc.prompts_per_gpu > 0);
  // 1. Rollout generation: one token at a time; each decode step is a
  //    bandwidth-bound pass over the weights, so SM activity is low.
  const double generation = static_cast<double>(pc.rollout_tokens) *
                            pc.prompts_per_gpu /
                            pc.decode_tokens_per_sec_per_gpu;
  // 2. Reward + critic scoring: one dense forward over the rollouts.
  const double scored_tokens = static_cast<double>(pc.world) *
                               pc.prompts_per_gpu * pc.rollout_tokens;
  const double scoring =
      compute_time(2.0 * cfg_.active_params() * scored_tokens, pc.world, 0.45);
  // 3. PPO update: fwd+bwd over the same tokens.
  const double training =
      compute_time(cfg_.train_flops_per_token() * scored_tokens, pc.world, 0.45);
  // 4. Weight sync from trainer to the rollout workers.
  const double weight_sync = 2.0 * cfg_.params() / 64 / 40e9;

  StepTimeline tl;
  const int gen_segments = 6;
  for (int i = 0; i < gen_segments; ++i)
    tl.phases.push_back({"rollout-decode", generation / gen_segments, 0.12});
  tl.phases.push_back({"reward-scoring", scoring, 0.45});
  tl.phases.push_back({"ppo-train", training, 0.50});
  tl.phases.push_back({"weight-sync", weight_sync, 0.05});
  return tl;
}

double PretrainExecutionModel::static_bytes_3d(const ThreeDConfig& pc) const {
  // Megatron-style: fp16 params + grads sharded by tp x pp; optimizer states
  // additionally sharded across dp (distributed optimizer / ZeRO-1).
  const auto anatomy = mixed_precision_anatomy(cfg_.params());
  const double model_shard = pc.tensor_parallel * pc.pipeline_parallel;
  return (anatomy.param_bytes + anatomy.grad_bytes) / model_shard +
         anatomy.optimizer_bytes / (model_shard * pc.data_parallel());
}

double PretrainExecutionModel::static_bytes_hier_zero(const HierZeroConfig& pc) const {
  // All three state classes sharded within the subgroup only (redundant
  // across subgroups, by design, to keep all-gathers intra-group).
  const auto anatomy = mixed_precision_anatomy(cfg_.params());
  return anatomy.total() / pc.shard_group;
}

double PretrainExecutionModel::activation_bytes_3d(const ThreeDConfig& pc) const {
  const int layers_per_stage = cfg_.layers / pc.pipeline_parallel;
  const double per_layer = activation_bytes_per_layer(
      cfg_, pc.microbatch_size, pc.tensor_parallel, pc.recompute,
      pc.sequence_parallel);
  // Rank 0 holds the most in-flight microbatches: min(m, p).
  const int in_flight = std::min(pc.micro_batches, pc.pipeline_parallel);
  return per_layer * layers_per_stage * in_flight;
}

double PretrainExecutionModel::activation_bytes_hier_zero(
    const HierZeroConfig& pc) const {
  const double per_layer = activation_bytes_per_layer(
      cfg_, pc.microbatch_size, 1, pc.recompute, false, pc.context_parallel);
  // One microbatch in flight; recompute keeps only layer inputs plus the
  // working set of the active layer.
  const double working_set = activation_bytes_per_layer(
      cfg_, pc.microbatch_size, 1, false, false, pc.context_parallel);
  return per_layer * cfg_.layers + working_set;
}

std::vector<double> PretrainExecutionModel::per_rank_memory_1f1b(
    const ThreeDConfig& pc) const {
  const int p = pc.pipeline_parallel;
  const int layers_per_stage = cfg_.layers / p;
  const double per_layer = activation_bytes_per_layer(
      cfg_, pc.microbatch_size, pc.tensor_parallel, pc.recompute);
  const double static_share = static_bytes_3d(pc);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const int in_flight = std::min(pc.micro_batches, p - r);
    double bytes = static_share + per_layer * layers_per_stage * in_flight;
    // First and last stages hold the embedding / LM-head shards.
    if (r == 0 || r == p - 1)
      bytes += 2.0 * static_cast<double>(cfg_.vocab) * cfg_.hidden * 2.0 /
               pc.tensor_parallel;
    out.push_back(bytes);
  }
  return out;
}

namespace {

PretrainExecutionModel::MemorySnapshot make_snapshot(double step_time,
                                                     double static_bytes,
                                                     double act_peak, int samples,
                                                     double rise_frac,
                                                     double plateau_frac) {
  PretrainExecutionModel::MemorySnapshot snap;
  snap.time.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const double t = step_time * i / (samples - 1);
    const double x = static_cast<double>(i) / (samples - 1);
    double dyn;
    if (x < rise_frac) {
      dyn = act_peak * (x / rise_frac);  // forward: activations accumulate
    } else if (x < rise_frac + plateau_frac) {
      dyn = act_peak;  // 1F1B steady: holding peak in-flight set
    } else {
      const double y = (x - rise_frac - plateau_frac) / (1.0 - rise_frac - plateau_frac);
      dyn = act_peak * std::max(0.0, 1.0 - y);  // backward frees
    }
    snap.time.push_back(t);
    snap.static_bytes.push_back(static_bytes);
    snap.dynamic_bytes.push_back(dyn);
  }
  return snap;
}

}  // namespace

PretrainExecutionModel::MemorySnapshot PretrainExecutionModel::memory_snapshot_3d(
    const ThreeDConfig& pc, int samples) const {
  return make_snapshot(step_3d(pc).step_time(), static_bytes_3d(pc),
                       activation_bytes_3d(pc), samples, 0.35, 0.40);
}

PretrainExecutionModel::MemorySnapshot
PretrainExecutionModel::memory_snapshot_hier_zero(const HierZeroConfig& pc,
                                                  int samples) const {
  return make_snapshot(step_hier_zero(pc).step_time(), static_bytes_hier_zero(pc),
                       activation_bytes_hier_zero(pc), samples, 0.45, 0.10);
}

}  // namespace acme::parallel
