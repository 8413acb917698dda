#include <gtest/gtest.h>

#include "cluster/spec.h"
#include "comm/collective.h"
#include "comm/topology.h"
#include "common/check.h"

namespace acme::comm {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;

CollectiveModel kalos_model() { return CollectiveModel(kalos_fabric()); }

// 16 Kalos nodes laid out as 2 datacenters x 4 pods: 2-node pods, so a
// 3-node world already crosses the spine and a 12-node one the long haul.
cluster::ClusterSpec tiered_spec() {
  cluster::ClusterSpec spec = cluster::kalos_spec();
  spec.node_count = 16;
  spec.topology = cluster::DomainShape{2, 4, 0};
  return spec;
}
// The same 16 nodes as one flat room.
cluster::ClusterSpec flat_spec() {
  cluster::ClusterSpec spec = tiered_spec();
  spec.topology = cluster::DomainShape{};
  return spec;
}
// Link rates the tier formulas are checked against, from Table 1 and the
// DESIGN §7 calibration: the 600 GB/s NVLink at 0.4 bus efficiency, and
// Kalos' 4 x 200 Gb/s HDR NICs at 0.8 efficiency with no storage share.
constexpr double kNvlinkBus = 600e9 * 0.4;
constexpr double kKalosNic = 4 * 25e9 * 0.8;

// --- Fabric topology ---

TEST(FabricTopology, DerivedFromClusterSpecs) {
  const FabricConfig seren = seren_fabric();
  const FabricConfig kalos = kalos_fabric();
  // Seren: one HDR HCA shared with storage; Kalos: four dedicated ones.
  EXPECT_TRUE(seren.nic_shared_with_storage);
  EXPECT_FALSE(kalos.nic_shared_with_storage);
  EXPECT_EQ(seren.compute_nics, 1);
  EXPECT_EQ(kalos.compute_nics, 4);
  FabricTopology st(seren), kt(kalos);
  EXPECT_GT(kt.node_nic_bytes_per_sec(), 4.0 * st.node_nic_bytes_per_sec());
  // NVLink islands are identical across the two clusters.
  EXPECT_DOUBLE_EQ(st.nvlink_bytes_per_sec(), kt.nvlink_bytes_per_sec());
}

TEST(FabricTopology, NodesForPlacement) {
  FabricTopology topo(kalos_fabric());
  EXPECT_EQ(topo.nodes_for(8, 0), 1);    // packed: one full node
  EXPECT_EQ(topo.nodes_for(64, 0), 8);
  EXPECT_EQ(topo.nodes_for(64, 1), 64);  // one rank per node (dp rings)
  EXPECT_EQ(topo.nodes_for(9, 0), 2);    // ceiling
}

// --- Collective cost models ---

TEST(Collective, RingAllReduceMonotoneInMessageSize) {
  const auto model = kalos_model();
  World w;
  w.gpus = 64;
  double prev = 0;
  for (double bytes : {1 * kMiB, 8 * kMiB, 64 * kMiB, 512 * kMiB, 4 * kGiB}) {
    const double t = model.all_reduce(w, bytes).seconds();
    EXPECT_GT(t, prev) << "bytes=" << bytes;
    prev = t;
  }
}

TEST(Collective, RingAllReduceMonotoneInWorldSize) {
  const auto model = kalos_model();
  const double bytes = 256 * kMiB;
  double prev = 0;
  for (int gpus : {2, 4, 8, 16, 32, 64, 128, 256}) {
    World w;
    w.gpus = gpus;
    const double t = model.all_reduce(w, bytes).seconds();
    EXPECT_GT(t, prev) << "gpus=" << gpus;
    prev = t;
  }
}

TEST(Collective, CrossingNodeBoundaryIsExpensive) {
  const auto model = kalos_model();
  World intra, inter;
  intra.gpus = 8;
  inter.gpus = 16;
  const double bytes = 1 * kGiB;
  // Going from an NVLink island to a two-node IB world costs far more than
  // the (p-1)/p traffic growth alone would.
  EXPECT_GT(model.all_reduce(inter, bytes).seconds(),
            2.0 * model.all_reduce(intra, bytes).seconds());
}

TEST(Collective, HierarchicalAllGatherBeatsFlatRingMultiNode) {
  const auto model = kalos_model();
  World w;
  w.gpus = 64;  // 8 Kalos nodes
  const double bytes = 1 * kGiB;
  const auto flat = model.all_gather(w, bytes, Algorithm::kRing);
  const auto hier = model.all_gather(w, bytes, Algorithm::kHierarchical);
  EXPECT_LT(hier.seconds(), flat.seconds());
  // Single-node worlds have no inter-node stage; hierarchical degenerates to
  // the flat ring.
  World island;
  island.gpus = 8;
  EXPECT_DOUBLE_EQ(model.all_gather(island, bytes, Algorithm::kHierarchical).seconds(),
                   model.all_gather(island, bytes, Algorithm::kRing).seconds());
}

TEST(Collective, ReduceScatterMirrorsAllGather) {
  const auto model = kalos_model();
  World w;
  w.gpus = 64;
  for (auto alg : {Algorithm::kRing, Algorithm::kHierarchical}) {
    EXPECT_DOUBLE_EQ(model.reduce_scatter(w, kGiB, alg).seconds(),
                     model.all_gather(w, kGiB, alg).seconds());
  }
}

TEST(Collective, TreeWinsTinyMessagesRingWinsLarge) {
  const auto model = kalos_model();
  World w;
  w.gpus = 128;
  const double tiny = 8 * 1024.0;
  EXPECT_LT(model.all_reduce(w, tiny, Algorithm::kTree).seconds(),
            model.all_reduce(w, tiny, Algorithm::kRing).seconds());
  EXPECT_GT(model.all_reduce(w, kGiB, Algorithm::kTree).seconds(),
            model.all_reduce(w, kGiB, Algorithm::kRing).seconds());
}

TEST(Collective, NicShareDividesBandwidth) {
  const auto model = kalos_model();
  World lone, shared;
  lone.gpus = shared.gpus = 64;
  lone.ranks_per_node = shared.ranks_per_node = 1;
  shared.nic_share = 8;
  const auto a = model.all_reduce(lone, kGiB);
  const auto b = model.all_reduce(shared, kGiB);
  EXPECT_NEAR(b.bandwidth_seconds, 8.0 * a.bandwidth_seconds,
              1e-9 * b.bandwidth_seconds);
  EXPECT_DOUBLE_EQ(a.latency_seconds, b.latency_seconds);
}

TEST(Collective, SerenInterNodeSlowerThanKalos) {
  const CollectiveModel seren(seren_fabric());
  const CollectiveModel kalos(kalos_fabric());
  World w;
  w.gpus = 64;
  // One shared HDR HCA vs four dedicated ones: > 4x slower across nodes.
  EXPECT_GT(seren.all_reduce(w, kGiB).seconds(),
            4.0 * kalos.all_reduce(w, kGiB).seconds());
}

TEST(Collective, DegenerateWorlds) {
  const auto model = kalos_model();
  World solo;
  solo.gpus = 1;
  EXPECT_DOUBLE_EQ(model.all_reduce(solo, kGiB).seconds(), 0.0);
  EXPECT_DOUBLE_EQ(model.all_gather(solo, kGiB).seconds(), 0.0);
  World w;
  w.gpus = 8;
  // Zero bytes still pays the per-hop latency.
  const auto c = model.all_reduce(w, 0.0);
  EXPECT_DOUBLE_EQ(c.bandwidth_seconds, 0.0);
  EXPECT_GT(c.latency_seconds, 0.0);
  World bad;
  bad.gpus = 0;
  EXPECT_THROW(model.all_reduce(bad, kGiB), common::CheckError);
}

TEST(Collective, BusBandwidthApproachesLinkRate) {
  const auto model = kalos_model();
  World island;
  island.gpus = 8;
  const double bytes = 4 * kGiB;
  const auto ar = model.all_reduce(island, bytes);
  const double busbw = bus_bandwidth_allreduce(island.gpus, bytes, ar.seconds());
  const double link = model.topology().nvlink_bytes_per_sec();
  // Large messages amortize latency: bus bandwidth within 5% of the link
  // rate but never above it.
  EXPECT_LT(busbw, link);
  EXPECT_GT(busbw, 0.95 * link);
  const auto ag = model.all_gather(island, bytes);
  const double ag_busbw = bus_bandwidth_allgather(island.gpus, bytes, ag.seconds());
  EXPECT_LT(ag_busbw, link);
  EXPECT_GT(ag_busbw, 0.95 * link);
}

// --- Tier crossings (DESIGN §14) ---

TEST(Tiers, FabricDerivesSpineAndLongHaulFromNicAggregate) {
  const FabricConfig f = fabric_from_cluster(tiered_spec());
  const FabricTopology topo(f);
  EXPECT_DOUBLE_EQ(topo.nvlink_bytes_per_sec(), kNvlinkBus);
  EXPECT_DOUBLE_EQ(topo.node_nic_bytes_per_sec(), kKalosNic);
  EXPECT_DOUBLE_EQ(f.spine.bytes_per_sec, kKalosNic / 4.0);      // 4:1 spine
  EXPECT_DOUBLE_EQ(f.longhaul.bytes_per_sec, kKalosNic / 16.0);  // 16:1 WAN
  EXPECT_DOUBLE_EQ(f.spine.alpha_seconds, 35e-6);
  EXPECT_DOUBLE_EQ(f.longhaul.alpha_seconds, 5e-3);
  // A flat room configures no tier links at all.
  const FabricConfig flat = fabric_from_cluster(flat_spec());
  EXPECT_EQ(flat.spine.bytes_per_sec, 0.0);
  EXPECT_EQ(flat.longhaul.bytes_per_sec, 0.0);
}

TEST(Tiers, PodCrossingAllReducePaysTheSpineStage) {
  const CollectiveModel model(fabric_from_cluster(tiered_spec()));
  World w;
  w.gpus = 64;  // nodes 0-7: four 2-node pods inside datacenter 0
  const double bytes = 1 * kGiB;
  const auto c = model.all_reduce(w, bytes, Algorithm::kHierarchical);
  // g = 8 ranks per node, n_pod = 2 nodes per pod, p_dc = 4 pods, d = 1:
  // hops = 2(g-1) + 2(n_pod-1) + 2(p_dc-1) + 2(d-1) = 14 + 2 + 6 + 0.
  EXPECT_EQ(c.hops, 22);
  EXPECT_NEAR(c.latency_seconds, 14 * 5e-6 + 2 * 20e-6 + 6 * 35e-6, 1e-15);
  const double expect_bw = 2.0 * 7 / 8 * bytes / kNvlinkBus +
                           2.0 * 1 / 2 * bytes / kKalosNic +
                           2.0 * 3 / 4 * bytes / (kKalosNic / 4.0);
  EXPECT_NEAR(c.bandwidth_seconds, expect_bw, 1e-12 * expect_bw);
}

TEST(Tiers, CrossDcAllGatherPaysTheLongHaulStage) {
  const CollectiveModel model(fabric_from_cluster(tiered_spec()));
  World w;
  w.gpus = 96;  // nodes 0-11: six pods over both datacenters
  const double bytes = 1 * kGiB;
  const auto c = model.all_gather(w, bytes, Algorithm::kHierarchical);
  // g = 8, n_pod = 2, p_dc = 3, d = 2: (g-1) + (n_pod-1) + (p_dc-1) + (d-1).
  EXPECT_EQ(c.hops, 11);
  EXPECT_NEAR(c.latency_seconds, 7 * 5e-6 + 20e-6 + 2 * 35e-6 + 5e-3, 1e-15);
  const double s = bytes / 96;
  const double expect_bw = 7 * s / kNvlinkBus + 1 * 8 * s / kKalosNic +
                           2 * 2 * 8 * s / (kKalosNic / 4.0) +
                           1 * 3 * 2 * 8 * s / (kKalosNic / 16.0);
  EXPECT_NEAR(c.bandwidth_seconds, expect_bw, 1e-12 * expect_bw);
}

TEST(Tiers, ProbeRoundPricesThePodCrossingAllGather) {
  const CollectiveModel tiered(fabric_from_cluster(tiered_spec()));
  const CollectiveModel flat(fabric_from_cluster(flat_spec()));
  // A 3-node probe world spans pods 0 and 1: its hierarchical all-gather
  // of 128 MiB adds one spine stage over two pod slabs (n_pod = 2, p_dc = 2).
  const double bytes = 128 * kMiB;
  const double s = bytes / 24;
  const double gather = 7 * 5e-6 + 20e-6 + 35e-6 + 7 * s / kNvlinkBus +
                        8 * s / kKalosNic + 2 * 8 * s / (kKalosNic / 4.0);
  const double bringup = 30.0 + 60.0 / 256.0 * 3;
  EXPECT_NEAR(tiered.probe_round_seconds(3), bringup + gather, 1e-12);
  const double flat_gather =
      7 * 5e-6 + 2 * 20e-6 + 7 * s / kNvlinkBus + 2 * 8 * s / kKalosNic;
  EXPECT_NEAR(flat.probe_round_seconds(3), bringup + flat_gather, 1e-12);
  EXPECT_GT(tiered.probe_round_seconds(3), flat.probe_round_seconds(3));
}

TEST(Tiers, CrossDcBringupCostsTwentySeconds) {
  const CollectiveModel tiered(fabric_from_cluster(tiered_spec()));
  const CollectiveModel flat(fabric_from_cluster(flat_spec()));
  const World twelve_nodes{96, 0, 1};
  EXPECT_EQ(tiered.bringup_seconds(twelve_nodes),
            flat.bringup_seconds(twelve_nodes) + 20.0);
  // Eight nodes stay inside datacenter 0: no long-haul rendezvous.
  const World eight_nodes{64, 0, 1};
  EXPECT_EQ(tiered.bringup_seconds(eight_nodes),
            flat.bringup_seconds(eight_nodes));
}

TEST(Tiers, WorldInsideOnePodPricesLikeTheFlatFabric) {
  const CollectiveModel tiered(fabric_from_cluster(tiered_spec()));
  const CollectiveModel flat(fabric_from_cluster(flat_spec()));
  World w;
  w.gpus = 16;  // nodes 0-1: exactly pod 0
  for (auto alg : {Algorithm::kRing, Algorithm::kTree, Algorithm::kHierarchical}) {
    for (double bytes : {8 * 1024.0, 1 * kGiB}) {
      const auto a = tiered.all_reduce(w, bytes, alg);
      const auto b = flat.all_reduce(w, bytes, alg);
      EXPECT_EQ(a.hops, b.hops);
      EXPECT_EQ(a.latency_seconds, b.latency_seconds);
      EXPECT_EQ(a.bandwidth_seconds, b.bandwidth_seconds);
      const auto ga = tiered.all_gather(w, bytes, alg);
      const auto gb = flat.all_gather(w, bytes, alg);
      EXPECT_EQ(ga.hops, gb.hops);
      EXPECT_EQ(ga.latency_seconds, gb.latency_seconds);
      EXPECT_EQ(ga.bandwidth_seconds, gb.bandwidth_seconds);
    }
  }
  EXPECT_EQ(tiered.bringup_seconds(w), flat.bringup_seconds(w));
}

// --- Bring-up & probe rounds ---

TEST(Bringup, FullScaleWorldCostsNinetySeconds) {
  const auto model = kalos_model();
  World full;
  full.gpus = 2048;  // 256 nodes: the historical hard-coded 90 s
  EXPECT_NEAR(model.bringup_seconds(full), 90.0, 1e-9);
  World small;
  small.gpus = 64;
  EXPECT_LT(model.bringup_seconds(small), 90.0);
  EXPECT_GT(model.bringup_seconds(small), 30.0);
}

TEST(Bringup, ProbeRoundScalesWithProbeCount) {
  const auto model = kalos_model();
  const double small = model.probe_round_seconds(16);
  const double large = model.probe_round_seconds(256);
  EXPECT_LT(small, large);
  // The data phase is bounded by the worst three-node world, so the gap is
  // exactly the extra bring-up.
  EXPECT_NEAR(large - small, (60.0 / 256.0) * (256 - 16), 1e-9);
  EXPECT_THROW(model.probe_round_seconds(0), common::CheckError);
}

}  // namespace
}  // namespace acme::comm
