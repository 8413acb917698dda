// Analytic collective cost models over the fabric topology.
//
// Alpha-beta costs for the collectives LLM training actually issues (ring
// and tree all-reduce, all-gather, reduce-scatter), plus the hierarchical
// two-stage variants (intra-node NVLink stage, then inter-node IB stage)
// that make multi-node worlds affordable. Each call returns a breakdown —
// latency term, bandwidth term, serialized hops — so callers can reason
// about which regime they are in, and bus-bandwidth helpers convert
// measured times into the figure nccl-tests print.
//
// Byte convention (NCCL's): `bytes` is the logical collective payload S —
// the buffer being reduced for all-reduce, the full concatenated result for
// all-gather, and the full input for reduce-scatter.
#pragma once

#include "comm/topology.h"

namespace acme::comm {

enum class Algorithm { kRing, kTree, kHierarchical };

struct CollectiveCost {
  double latency_seconds = 0;    // sum of per-hop alpha terms
  double bandwidth_seconds = 0;  // serialized bytes over the bottleneck link
  int hops = 0;                  // serialized communication steps
  double seconds() const { return latency_seconds + bandwidth_seconds; }
};

// A communicator: `gpus` ranks on the contiguous, healthy node span
// [0, nodes).
struct World {
  int gpus = 8;
  // Ranks per node; 0 means packed placement (the topology's gpus_per_node).
  // Gradient all-reduce groups in tp x pp layouts place one rank per node.
  int ranks_per_node = 0;
  // Co-resident communicators sharing each node's NICs (e.g. the 8 per-node
  // gradient rings of a tp=8 layout). Divides the per-node IB bandwidth.
  int nic_share = 1;
};

class CollectiveModel {
 public:
  explicit CollectiveModel(FabricConfig config) : topo_(std::move(config)) {}
  explicit CollectiveModel(FabricTopology topology) : topo_(std::move(topology)) {}

  const FabricTopology& topology() const { return topo_; }

  CollectiveCost all_reduce(const World& w, double bytes,
                            Algorithm algorithm = Algorithm::kRing) const;
  CollectiveCost all_gather(const World& w, double bytes,
                            Algorithm algorithm = Algorithm::kRing) const;
  CollectiveCost reduce_scatter(const World& w, double bytes,
                                Algorithm algorithm = Algorithm::kRing) const;

  // NCCL communicator bring-up plus scheduler launch: bootstrap rendezvous
  // and ring/tree graph construction grow with node count. Calibrated so a
  // 2048-GPU (256-node) world costs the ~90 s the recovery path historically
  // hard-coded.
  double bringup_seconds(const World& w) const;

  // One round of §6.1-3 fault localization: `node_count` nodes are split
  // into 2-3-node worlds that run a probe all-gather in parallel. The round
  // pays the bring-up across the whole probe set (every world rendezvouses
  // through the same launcher) plus the slowest world's all-gather.
  double probe_round_seconds(int node_count,
                             double probe_bytes = 128.0 * 1024 * 1024) const;

  // Number of nodes `w` spans.
  int nodes(const World& w) const;

 private:
  struct LinkTerms {
    double alpha = 0;
    double beta = 0;  // seconds per byte over the bottleneck link
  };
  // Bottleneck link of a flat (single-stage) collective over `w`.
  LinkTerms flat_link(const World& w) const;
  LinkTerms nvlink_terms() const;
  LinkTerms inter_node_terms(const World& w) const;
  // Tier links above the node NIC; fall back to the NIC terms when the
  // fabric has no configured spine/long-haul (flat clusters).
  LinkTerms spine_terms(const World& w) const;
  LinkTerms longhaul_terms(const World& w) const;
  // Pods/datacenters the world's placement crosses ({1, 1} on flat fabrics:
  // every pre-hierarchy formula is reproduced bit-for-bit through that path).
  FabricTopology::TierSpan tiers(const World& w) const;

  FabricTopology topo_;
};

// NCCL-style bus bandwidth: algbw = bytes/seconds, scaled by the algorithm's
// traffic factor so the figure is comparable to the hardware link rate.
double bus_bandwidth_allreduce(int gpus, double bytes, double seconds);
double bus_bandwidth_allgather(int gpus, double bytes, double seconds);

}  // namespace acme::comm
