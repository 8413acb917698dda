// Topology-aware collective-communication fabric model (paper §2.1; the
// NVLink-inside / InfiniBand-across fabric that shapes every pretraining and
// recovery analysis in §4.1 and §6.1-3).
//
// Two link classes, mirroring the Acme clusters:
//  - NVLink/NVSwitch inside a node: 600 GB/s bidirectional per A100, of
//    which NCCL-style collectives sustain a calibrated fraction.
//  - InfiniBand across nodes: Seren has one 200 Gb/s HDR HCA per node,
//    shared with storage traffic; Kalos has four dedicated 200 Gb/s compute
//    HCAs (plus a separate storage HCA modelled in acme::storage).
//
// Every link carries an alpha (per-hop message latency) and beta
// (1/bandwidth) term — the standard alpha-beta cost model used by
// fine-grained LLM-cluster simulators.
#pragma once

#include <string>

#include "cluster/domain.h"
#include "cluster/spec.h"
#include "cluster/state.h"

namespace acme::comm {

struct LinkSpec {
  double alpha_seconds = 0;  // per-hop message launch latency
  double bytes_per_sec = 0;  // sustained link bandwidth (beta = 1/this)
};

struct FabricConfig {
  std::string name;
  int gpus_per_node = 8;
  // Intra-node NVLink as seen by a ring collective (achievable bus
  // bandwidth, not the marketing bidirectional figure).
  LinkSpec nvlink;
  // One IB HCA (raw line rate; nic_efficiency derates it).
  LinkSpec nic;
  int compute_nics = 1;
  // Fraction of the raw NIC line rate collectives sustain (protocol
  // overhead, congestion, rail imbalance).
  double nic_efficiency = 0.8;
  // Seren's single HDR HCA also carries the 25 Gb/s storage lane
  // (Fig 16-left), so collectives get only the remaining capacity.
  bool nic_shared_with_storage = false;
  // Hierarchical tiers above the node NIC. `spine` is the oversubscribed
  // inter-pod fabric inside a datacenter; `longhaul` is the cross-DC WAN
  // pipe. bytes_per_sec == 0 disables a tier (flat single-pod fabric —
  // every pre-hierarchy config), in which case a crossing prices at the
  // node-NIC rate.
  LinkSpec spine;
  LinkSpec longhaul;
  // Physical domain layout and node count of the cluster the fabric
  // describes. node_count == 0 = unknown (legacy flat callers): the
  // topology degenerates to a single pod.
  cluster::DomainShape topology;
  int node_count = 0;
};

// Seren: 1x200 Gb/s HDR shared with storage. Kalos: 4x200 Gb/s compute NICs.
FabricConfig seren_fabric();
FabricConfig kalos_fabric();
// Derives a fabric from a Table-1 cluster spec: compute NIC count and line
// rate from the NodeSpec; a node with no dedicated storage HCA shares its
// compute HCA with storage (the Seren pattern).
FabricConfig fabric_from_cluster(const cluster::ClusterSpec& spec);

class FabricTopology {
 public:
  explicit FabricTopology(FabricConfig config);

  const FabricConfig& config() const { return config_; }
  int gpus_per_node() const { return config_.gpus_per_node; }
  // Nodes spanned by `gpus` ranks at `ranks_per_node` per node (ceiling).
  int nodes_for(int gpus, int ranks_per_node) const;

  double nvlink_alpha() const { return config_.nvlink.alpha_seconds; }
  double nic_alpha() const { return config_.nic.alpha_seconds; }

  // NVLink bus rate a ring collective sustains inside one node.
  double nvlink_bytes_per_sec() const { return config_.nvlink.bytes_per_sec; }
  // Aggregate collective bandwidth of one node's compute NICs, after
  // efficiency derating and the storage share.
  double node_nic_bytes_per_sec() const;

  // The domain hierarchy the fabric spans (degenerate single-pod tree for
  // flat configs with no node count).
  const cluster::DomainTree& domains() const { return domains_; }
  // Tiers crossed by a communicator on the node span [0, count);
  // hierarchical collectives price one stage per crossed tier. {1, 1} on
  // flat fabrics.
  struct TierSpan {
    int pods = 1;
    int datacenters = 1;
  };
  TierSpan tier_span(int count) const;

  // Effective per-communicator tier bandwidths (0 = tier disabled).
  double spine_bytes_per_sec() const { return config_.spine.bytes_per_sec; }
  double longhaul_bytes_per_sec() const {
    return config_.longhaul.bytes_per_sec;
  }
  double spine_alpha() const { return config_.spine.alpha_seconds; }
  double longhaul_alpha() const { return config_.longhaul.alpha_seconds; }

 private:
  FabricConfig config_;
  cluster::DomainTree domains_;
};

}  // namespace acme::comm
