#include "cluster/power.h"

#include <algorithm>
#include <cmath>

namespace acme::cluster {

GpuPowerModel::GpuPowerModel(GpuSpec spec) : spec_(spec) {}

double GpuPowerModel::power_w(double sm_util, double mem_frac, common::Rng& rng) const {
  sm_util = std::clamp(sm_util, 0.0, 1.0);
  mem_frac = std::clamp(mem_frac, 0.0, 1.0);
  if (sm_util < 0.02) {
    // Idle GPUs still burn ~60 W; small jitter from clocking/ECC refresh.
    return std::max(40.0, spec_.idle_power_w + rng.zig_normal(0.0, 3.0));
  }
  // Dynamic power grows superlinearly near full occupancy: tensor-core dense
  // kernels on communication-optimized jobs push past TDP (paper observes
  // 12.5–22.1% of GPUs over 400 W, peaks at 600 W).
  const double base = spec_.idle_power_w + 30.0 * mem_frac;
  const double dynamic_span = spec_.tdp_w - spec_.idle_power_w;
  double p = base + dynamic_span * std::pow(sm_util, 1.35);
  if (sm_util > 0.9) {
    // Heavy tensor-core phases overshoot TDP with long-tailed excursions.
    const double overshoot = (spec_.max_power_w - spec_.tdp_w) *
                             std::max(0.0, rng.zig_normal(0.12, 0.30));
    p += overshoot * (sm_util - 0.9) / 0.1;
  }
  p += rng.zig_normal(0.0, 8.0);
  return std::clamp(p, 40.0, spec_.max_power_w);
}

double GpuThermalModel::core_temp_c(double power_w, double ambient_c,
                                    common::Rng& rng) const {
  // Linear thermal resistance model: ~0.085 C/W above ambient with airflow
  // noise. 400 W -> ~34 C above ambient; ambient ~30-35 C in a warm room
  // yields the >65 C heavy-load population of Fig 21.
  const double rise = 0.085 * power_w;
  return ambient_c + rise + rng.zig_normal(0.0, 1.5);
}

double GpuThermalModel::mem_temp_c(double core_temp_c, common::Rng& rng) const {
  // HBM stacks run consistently hotter than the core (paper Fig 21).
  return core_temp_c + 6.0 + std::max(0.0, rng.zig_normal(2.0, 1.0));
}

ServerPowerModel::ServerPowerModel(NodeSpec node) : node_(node) {}

ServerPowerBreakdown ServerPowerModel::gpu_server(double total_gpu_w,
                                                  double cpu_util) const {
  ServerPowerBreakdown b;
  b.gpu_w = total_gpu_w;
  // 2x Xeon 8358P (240 W TDP each) plus platform logic: a loaded GPU node
  // never idles its CPUs completely (dataloaders, NCCL proxies). Calibrated
  // so the Fig 9 split holds: GPUs ~2/3, CPUs ~11.2%, PSU loss ~9.6%.
  b.cpu_w = 380.0 + 450.0 * std::clamp(cpu_util, 0.0, 1.0);
  // DRAM: 32 DIMMs at ~6 W each, mildly load dependent.
  b.memory_w = 190.0 + 60.0 * std::clamp(cpu_util, 0.0, 1.0);
  b.fan_w = 150.0 + 0.02 * total_gpu_w;  // fans track thermal load
  b.nic_storage_other_w =
      30.0 + 10.0 * static_cast<double>(node_.compute_nics + node_.storage_nics);
  // PSU conversion loss ~9.6% of delivered power (paper Fig 9).
  const double delivered = b.gpu_w + b.cpu_w + b.memory_w + b.fan_w + b.nic_storage_other_w;
  b.psu_loss_w = delivered * 0.106;  // loss/(delivered+loss) ~= 9.6%
  return b;
}

double ServerPowerModel::cpu_server_w(double cpu_util) const {
  // CPU-only service node: ~5x less than a loaded GPU server (paper Fig 8b).
  const double cpu = 380.0 + 450.0 * std::clamp(cpu_util, 0.0, 1.0);
  const double rest = 150.0;
  return (cpu + rest) * 1.106;
}

}  // namespace acme::cluster
