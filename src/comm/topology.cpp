#include "comm/topology.h"

#include <algorithm>

#include "common/check.h"
#include "common/units.h"

namespace acme::comm {

namespace {

// Fraction of the 600 GB/s bidirectional NVLink figure that ring collectives
// sustain as bus bandwidth on A100 NVSwitch nodes (~240 GB/s, the number
// nccl-tests report on 8xA100).
constexpr double kNvlinkBusEfficiency = 0.4;
// NCCL launch + NVSwitch hop latency vs cross-node IB (verbs + switch hops).
constexpr double kNvlinkAlphaSeconds = 5e-6;
constexpr double kIbAlphaSeconds = 20e-6;
// Share of Seren's single HDR HCA left for collectives once the 25 Gb/s
// storage lane (Fig 16-left) is carved out: (200 - 25) / 200.
constexpr double kSharedNicComputeShare = 0.875;
// Default tier links for hierarchical (multi-pod / multi-DC) fabrics.
// Rail-optimized pods run 1:1 inside the pod; the spine above them is
// oversubscribed, and the cross-DC long-haul adds millisecond-scale RTT on
// a thinner shared pipe. Both are per-communicator effective bandwidths,
// derived from the node NIC aggregate.
constexpr double kSpineAlphaSeconds = 35e-6;
constexpr double kSpineOversubscription = 4.0;
constexpr double kLonghaulAlphaSeconds = 5e-3;
constexpr double kLonghaulOversubscription = 16.0;

LinkSpec nvlink_link() {
  LinkSpec l;
  l.alpha_seconds = kNvlinkAlphaSeconds;
  l.bytes_per_sec =
      common::gbps_to_Bps(cluster::GpuSpec{}.nvlink_gbps) * kNvlinkBusEfficiency;
  return l;
}

}  // namespace

FabricConfig fabric_from_cluster(const cluster::ClusterSpec& spec) {
  FabricConfig f;
  f.name = spec.name;
  f.gpus_per_node = spec.node.gpus;
  f.nvlink = nvlink_link();
  f.nic.alpha_seconds = kIbAlphaSeconds;
  f.nic.bytes_per_sec = common::gbps_to_Bps(spec.node.nic_gbps);
  f.compute_nics = spec.node.compute_nics;
  // No dedicated storage HCA means checkpoint/loading traffic rides the
  // compute HCA (the Seren pattern; Kalos has a separate storage NIC).
  f.nic_shared_with_storage = spec.node.storage_nics == 0;
  f.topology = spec.topology;
  f.node_count = spec.node_count;
  if (!spec.topology.trivial()) {
    const double nic_aggregate =
        f.nic.bytes_per_sec * f.compute_nics * f.nic_efficiency;
    f.spine.alpha_seconds = kSpineAlphaSeconds;
    f.spine.bytes_per_sec = nic_aggregate / kSpineOversubscription;
    f.longhaul.alpha_seconds = kLonghaulAlphaSeconds;
    f.longhaul.bytes_per_sec = nic_aggregate / kLonghaulOversubscription;
  }
  return f;
}

FabricConfig seren_fabric() { return fabric_from_cluster(cluster::seren_spec()); }

FabricConfig kalos_fabric() { return fabric_from_cluster(cluster::kalos_spec()); }

FabricTopology::FabricTopology(FabricConfig config) : config_(std::move(config)) {
  ACME_CHECK(config_.gpus_per_node > 0);
  ACME_CHECK(config_.nvlink.bytes_per_sec > 0 && config_.nic.bytes_per_sec > 0);
  ACME_CHECK(config_.nvlink.alpha_seconds >= 0 && config_.nic.alpha_seconds >= 0);
  ACME_CHECK(config_.compute_nics > 0);
  ACME_CHECK(config_.nic_efficiency > 0 && config_.nic_efficiency <= 1.0);
  ACME_CHECK(config_.spine.bytes_per_sec >= 0 &&
             config_.longhaul.bytes_per_sec >= 0);
  if (config_.node_count > 0)
    domains_ = cluster::DomainTree(config_.node_count, config_.topology);
}

int FabricTopology::nodes_for(int gpus, int ranks_per_node) const {
  ACME_CHECK(gpus > 0);
  const int per_node = ranks_per_node > 0 ? ranks_per_node : config_.gpus_per_node;
  return (gpus + per_node - 1) / per_node;
}

double FabricTopology::node_nic_bytes_per_sec() const {
  double per_nic = config_.nic.bytes_per_sec * config_.nic_efficiency;
  if (config_.nic_shared_with_storage) per_nic *= kSharedNicComputeShare;
  return per_nic * config_.compute_nics;
}

FabricTopology::TierSpan FabricTopology::tier_span(int count) const {
  TierSpan span;
  if (domains_.trivial() || domains_.node_count() == 0 || count <= 0)
    return span;
  // Clamp to the tree: callers may price hypothetical worlds wider than
  // the configured cluster.
  count = std::min(count, domains_.node_count());
  span.pods = domains_.pods_spanned(0, count);
  span.datacenters = domains_.datacenters_spanned(0, count);
  return span;
}

}  // namespace acme::comm
