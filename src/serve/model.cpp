#include "serve/model.h"

#include <algorithm>

#include "common/check.h"

namespace acme::serve {

double kv_bytes_per_token(const parallel::TransformerConfig& cfg) {
  return 2.0 * 2.0 * static_cast<double>(cfg.layers) *
         static_cast<double>(cfg.hidden);
}

ReplicaCostModel::ReplicaCostModel(parallel::TransformerConfig cfg,
                                   ReplicaHardware hw,
                                   const comm::CollectiveModel& fabric)
    : cfg_(std::move(cfg)), hw_(hw) {
  ACME_CHECK_MSG(hw_.gpus > 0, "replica needs at least one GPU");
  weight_bytes_ = parallel::mixed_precision_anatomy(cfg_.params()).param_bytes;
  kv_per_token_ = serve::kv_bytes_per_token(cfg_);
  const double usable =
      static_cast<double>(hw_.gpus) *
          (hw_.gpu_memory_bytes - hw_.workspace_bytes_per_gpu) -
      weight_bytes_;
  ACME_CHECK_MSG(usable > kv_per_token_,
                 "model weights do not leave KV-cache room on this replica");
  kv_capacity_tokens_ = static_cast<std::uint64_t>(usable / kv_per_token_);
  forward_flops_per_token_ = cfg_.train_flops_per_token() / 3.0;
  replica_flops_ = static_cast<double>(hw_.gpus) * hw_.peak_flops_per_gpu *
                   hw_.flops_efficiency;
  replica_hbm_ = static_cast<double>(hw_.gpus) * hw_.hbm_bytes_per_second;

  // Linearize the per-layer tensor-parallel all-reduce (Megatron runs two per
  // layer on the token path). The collective cost is affine in payload bytes,
  // so two evaluations recover the latency floor and the per-byte slope; the
  // hot path then prices any batch without touching the fabric again.
  const comm::World tp{hw_.gpus, 0, 1};
  const double bytes1 = 2.0 * static_cast<double>(cfg_.hidden);      // 1 token
  const double bytes2 = 2.0 * bytes1;                                // 2 tokens
  const double c1 = fabric.all_reduce(tp, bytes1).seconds();
  const double c2 = fabric.all_reduce(tp, bytes2).seconds();
  const double per_token = std::max(0.0, c2 - c1);
  const double alpha = std::max(0.0, c1 - per_token);
  const double ops = 2.0 * static_cast<double>(cfg_.layers);
  tp_alpha_per_step_ = ops * alpha;
  tp_beta_per_token_ = ops * per_token;
}

double ReplicaCostModel::prefill_seconds(std::uint64_t prompt_tokens) const {
  const double tokens = static_cast<double>(prompt_tokens);
  const double compute = tokens * forward_flops_per_token_ / replica_flops_;
  const double comm = tp_alpha_per_step_ + tokens * tp_beta_per_token_;
  return compute + comm;
}

double ReplicaCostModel::decode_step_seconds(
    int batch, std::uint64_t resident_kv_tokens) const {
  const double b = static_cast<double>(std::max(batch, 1));
  const double hbm_bytes =
      weight_bytes_ + static_cast<double>(resident_kv_tokens) * kv_per_token_;
  const double memory = hbm_bytes / replica_hbm_;
  const double compute = b * forward_flops_per_token_ / replica_flops_;
  const double comm = tp_alpha_per_step_ + b * tp_beta_per_token_;
  return std::max(memory, compute) + comm;
}

}  // namespace acme::serve
