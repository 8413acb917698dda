// Static cluster specifications (paper Table 1) and hardware constants.
#pragma once

#include <string>

namespace acme::cluster {

enum class SchedulerKind { kSlurm, kKubernetes };

// A100-SXM 80GB constants used throughout the models.
struct GpuSpec {
  double memory_gb = 80.0;
  double idle_power_w = 60.0;   // ~30% of GPUs idle at 60 W (Fig 8a)
  double tdp_w = 400.0;         // TDP per Fig 8a
  double max_power_w = 600.0;   // observed peak in the paper
  double peak_tflops_bf16 = 312.0;
  double nvlink_gbps = 600.0 * 8.0;  // 600 GB/s bidirectional
};

struct NodeSpec {
  int cpus = 128;              // 2x Xeon 8358P, 128 threads
  int gpus = 8;
  double host_memory_gb = 1024.0;
  int compute_nics = 1;        // IB HCAs for application traffic
  double nic_gbps = 200.0;     // per-HCA HDR InfiniBand
  int storage_nics = 0;        // dedicated storage HCA (Kalos only)
  double storage_nic_gbps = 25.0;  // Seren storage NIC cap (Fig 16-left)
};

// Physical layout of a fleet: datacenters split into pods (one PDU / spine
// block each), pods split into rail/switch groups of nodes. The defaults
// describe today's flat single-room clusters; `trivial()` layouts build a
// degenerate DomainTree and change nothing downstream.
struct DomainShape {
  int datacenters = 1;
  int pods_per_datacenter = 1;
  // Nodes per rail/switch group inside a pod; 0 = one group per pod.
  int nodes_per_switch = 0;

  bool trivial() const {
    return datacenters <= 1 && pods_per_datacenter <= 1 &&
           nodes_per_switch <= 0;
  }
};

struct ClusterSpec {
  std::string name;
  int node_count = 0;
  NodeSpec node;
  SchedulerKind scheduler = SchedulerKind::kSlurm;
  DomainShape topology;

  int total_gpus() const { return node_count * node.gpus; }
};

// Seren: 286 nodes, 1 TB host memory, 1x200 Gb/s, Slurm. 2,288 GPUs.
ClusterSpec seren_spec();
// Kalos: 302 nodes, 2 TB host memory, 5x200 Gb/s (4 compute + 1 storage),
// Kubernetes. 2,416 GPUs.
ClusterSpec kalos_spec();

}  // namespace acme::cluster
