#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/domain.h"
#include "cluster/power.h"
#include "cluster/spec.h"
#include "cluster/state.h"
#include "comm/collective.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "trace/job.h"

namespace acme::cluster {
namespace {

// --- Specs (paper Table 1) ---

TEST(Spec, SerenMatchesTable1) {
  const auto s = seren_spec();
  EXPECT_EQ(s.node_count, 286);
  EXPECT_EQ(s.node.gpus, 8);
  EXPECT_EQ(s.node.cpus, 128);
  EXPECT_DOUBLE_EQ(s.node.host_memory_gb, 1024.0);
  EXPECT_EQ(s.total_gpus(), 2288);
  EXPECT_EQ(s.scheduler, SchedulerKind::kSlurm);
}

TEST(Spec, KalosMatchesTable1) {
  const auto k = kalos_spec();
  EXPECT_EQ(k.node_count, 302);
  EXPECT_DOUBLE_EQ(k.node.host_memory_gb, 2048.0);
  EXPECT_EQ(k.total_gpus(), 2416);
  EXPECT_EQ(k.node.compute_nics, 4);
  EXPECT_EQ(k.node.storage_nics, 1);
  EXPECT_EQ(k.scheduler, SchedulerKind::kKubernetes);
}

TEST(Spec, AcmeTotalGpus) {
  EXPECT_EQ(seren_spec().total_gpus() + kalos_spec().total_gpus(), 4704);
}

// --- Resource ledger ---

static_assert(sizeof(Allocation) == 8, "a placement is a first node and a GPU count");
static_assert(std::is_trivially_copyable_v<Allocation>);

// (node, gpus) for each node of a placement, first to last.
std::vector<std::pair<NodeId, int>> slices_of(const ClusterState& state,
                                              const Allocation& alloc) {
  std::vector<std::pair<NodeId, int>> out;
  state.for_each_slice(alloc, [&](NodeId node, int gpus) { out.emplace_back(node, gpus); });
  return out;
}

TEST(ClusterState, SubNodeBestFitPacksFullestNode) {
  ClusterSpec spec = seren_spec();
  spec.node_count = 3;
  ClusterState state(spec);
  auto a = state.try_allocate(6);
  ASSERT_TRUE(a.has_value());
  // Next 2-GPU job should land on the node with 2 free (best fit), not an
  // empty one.
  auto b = state.try_allocate(2);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first, a->first);
  EXPECT_EQ(slices_of(state, *b), (std::vector<std::pair<NodeId, int>>{{a->first, 2}}));
  EXPECT_EQ(state.empty_healthy_nodes(), 2);
}

TEST(ClusterState, GangAllocationUsesWholeNodes) {
  ClusterSpec spec = seren_spec();
  spec.node_count = 5;
  ClusterState state(spec);
  auto a = state.try_allocate(24);  // 3 whole nodes
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(slices_of(state, *a),
            (std::vector<std::pair<NodeId, int>>{{0, 8}, {1, 8}, {2, 8}}));
  EXPECT_EQ(state.free_gpus(), 16);
}

TEST(ClusterState, GangWithRemainderTakesPartialSlice) {
  ClusterSpec spec = seren_spec();
  spec.node_count = 3;
  ClusterState state(spec);
  auto a = state.try_allocate(12);  // 1 full node + half a node
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->gpus, 12);
  EXPECT_EQ(slices_of(state, *a), (std::vector<std::pair<NodeId, int>>{{0, 8}, {1, 4}}));
}

TEST(ClusterState, FailsWhenFragmented) {
  ClusterSpec spec = seren_spec();
  spec.node_count = 2;
  ClusterState state(spec);
  // Occupy 1 GPU (lands on node A via best fit), then the whole other node.
  ASSERT_TRUE(state.try_allocate(1).has_value());
  ASSERT_TRUE(state.try_allocate(8).has_value());
  EXPECT_EQ(state.free_gpus(), 7);
  // No empty node remains for a gang; a 7-GPU sub-node job still fits.
  EXPECT_FALSE(state.try_allocate(8).has_value());
  EXPECT_TRUE(state.try_allocate(7).has_value());
}

TEST(ClusterState, ReleaseRestoresAndChecksDoubleFree) {
  ClusterSpec spec = seren_spec();
  spec.node_count = 2;
  ClusterState state(spec);
  auto a = state.try_allocate(8);
  ASSERT_TRUE(a.has_value());
  state.release(*a);
  EXPECT_EQ(state.free_gpus(), 16);
  EXPECT_THROW(state.release(*a), common::CheckError);
}

TEST(ClusterState, CordonExcludesFromPlacementAndCounts) {
  ClusterSpec spec = seren_spec();
  spec.node_count = 2;
  ClusterState state(spec);
  state.cordon(0);
  EXPECT_EQ(state.free_gpus(), 8);
  EXPECT_EQ(state.free_gpus_including_cordoned(), 16);
  auto a = state.try_allocate(8);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first, 1);
  EXPECT_FALSE(state.try_allocate(1).has_value());
  state.uncordon(0);
  EXPECT_TRUE(state.try_allocate(1).has_value());
  EXPECT_EQ(state.cordoned_nodes().size(), 0u);
}

TEST(ClusterState, CordonWhileAllocatedReleasesCorrectly) {
  ClusterSpec spec = seren_spec();
  spec.node_count = 1;
  ClusterState state(spec);
  auto a = state.try_allocate(4);
  ASSERT_TRUE(a.has_value());
  state.cordon(0);
  state.release(*a);  // release on a cordoned node must not corrupt counters
  EXPECT_EQ(state.free_gpus(), 0);
  state.uncordon(0);
  EXPECT_EQ(state.free_gpus(), 8);
}

TEST(ClusterState, CordonUncordonRoundTripRestoresBucketsExactly) {
  // Repeated cordon/uncordon cycles — including while partially allocated —
  // must leave the free-GPU counters AND the bucket index exactly where they
  // started: best-fit placement after the round trips picks the same node a
  // fresh ledger would.
  ClusterSpec spec = seren_spec();
  spec.node_count = 4;
  ClusterState state(spec);
  auto a = state.try_allocate(6);  // node 0 has 2 free: the best-fit target
  ASSERT_TRUE(a.has_value());
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (NodeId n = 0; n < 4; ++n) state.cordon(n);
    EXPECT_EQ(state.free_gpus(), 0);
    EXPECT_EQ(state.cordoned_count(), 4);
    EXPECT_EQ(state.empty_healthy_nodes(), 0);
    EXPECT_FALSE(state.can_allocate(1));
    for (NodeId n = 3; n >= 0; --n) state.uncordon(n);
    EXPECT_EQ(state.cordoned_count(), 0);
    EXPECT_EQ(state.free_gpus(), 4 * 8 - 6);
    EXPECT_EQ(state.free_gpus_including_cordoned(), 4 * 8 - 6);
    EXPECT_EQ(state.empty_healthy_nodes(), 3);
  }
  // Bucket membership survived the churn: a 2-GPU job best-fits node 0.
  auto b = state.try_allocate(2);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first, a->first);
  state.release(*a);
  state.release(*b);
  EXPECT_EQ(state.free_gpus(), state.total_gpus());
}

TEST(ClusterState, GangOverScatteredEmptyNodesReleasesExactlyThoseNodes) {
  // Nodes 1, 3 and 4 are busy, so a 20-GPU gang threads through the empty
  // nodes 0, 2 and 5 (remainder last). Releasing it frees exactly those
  // nodes and resets their links: afterwards the ledger places exactly like
  // one that never held the gang.
  ClusterSpec spec = seren_spec();
  spec.node_count = 6;
  const auto occupy_1_3_4 = [](ClusterState& state) {
    std::vector<Allocation> whole;
    for (int i = 0; i < 6; ++i) whole.push_back(*state.try_allocate(8));
    for (NodeId n : {0, 2, 5}) state.release(whole[static_cast<std::size_t>(n)]);
  };
  ClusterState state(spec);
  ClusterState reference(spec);
  occupy_1_3_4(state);
  occupy_1_3_4(reference);

  auto gang = state.try_allocate(20);
  ASSERT_TRUE(gang.has_value());
  EXPECT_EQ(gang->first, 0);
  EXPECT_EQ(slices_of(state, *gang),
            (std::vector<std::pair<NodeId, int>>{{0, 8}, {2, 8}, {5, 4}}));
  EXPECT_TRUE(state.chain_matches(*gang));
  EXPECT_EQ(state.free_gpus(), 4);
  state.release(*gang);
  EXPECT_EQ(state.free_gpus(), 24);
  EXPECT_EQ(state.healthy_idle_nodes(), (std::vector<NodeId>{0, 2, 5}));

  for (const int gpus : {3, 16, 5, 4, 8}) {
    auto a = state.try_allocate(gpus);
    auto b = reference.try_allocate(gpus);
    ASSERT_EQ(a.has_value(), b.has_value()) << "gpus=" << gpus;
    if (!a) continue;
    EXPECT_EQ(slices_of(state, *a), slices_of(reference, *b)) << "gpus=" << gpus;
    EXPECT_TRUE(state.chain_matches(*a)) << "gpus=" << gpus;  // no stale link
  }
  EXPECT_EQ(state.free_gpus(), reference.free_gpus());
}

// Property: a random allocate/release workload never oversubscribes and ends
// balanced.
class StatePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatePropertyTest, ConservationUnderRandomWorkload) {
  ClusterSpec spec = seren_spec();
  spec.node_count = 16;
  ClusterState state(spec);
  common::Rng rng(GetParam());
  std::vector<Allocation> live;
  for (int i = 0; i < 3000; ++i) {
    if (rng.bernoulli(0.6)) {
      const int gpus = static_cast<int>(rng.uniform_int(1, 40));
      if (auto a = state.try_allocate(gpus)) live.push_back(*a);
    } else if (!live.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      state.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    int used = 0;
    for (const auto& a : live) used += a.gpus;
    ASSERT_EQ(state.free_gpus_including_cordoned(), state.total_gpus() - used);
    for (int n = 0; n < state.node_count(); ++n) {
      ASSERT_GE(state.node(n).gpus_free, 0);
      ASSERT_LE(state.node(n).gpus_free, state.node(n).gpus_total);
    }
  }
  for (const auto& a : live) state.release(a);
  EXPECT_EQ(state.free_gpus(), state.total_gpus());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatePropertyTest, ::testing::Values(1, 7, 99));

// --- Power & thermal models (paper Fig 8, 9, 21, A.3) ---

TEST(GpuPower, IdleDrawsAboutSixtyWatts) {
  GpuPowerModel model;
  common::Rng rng(1);
  common::SampleStats s;
  for (int i = 0; i < 2000; ++i) s.add(model.power_w(0.0, 0.0, rng));
  EXPECT_NEAR(s.mean(), 60.0, 5.0);
}

TEST(GpuPower, FullLoadExceedsTdpSometimes) {
  GpuPowerModel model;
  common::Rng rng(2);
  int over_tdp = 0;
  const int n = 5000;
  double max_seen = 0;
  for (int i = 0; i < n; ++i) {
    const double p = model.power_w(0.97, 0.85, rng);
    if (p > 400.0) ++over_tdp;
    max_seen = std::max(max_seen, p);
  }
  // Heavily loaded GPUs exceed TDP regularly but stay under 600 W.
  EXPECT_GT(over_tdp, n / 10);
  EXPECT_LE(max_seen, 600.0);
}

TEST(GpuPower, MonotoneInUtilization) {
  GpuPowerModel model;
  common::Rng rng(3);
  common::SampleStats low, high;
  for (int i = 0; i < 2000; ++i) {
    low.add(model.power_w(0.3, 0.5, rng));
    high.add(model.power_w(0.8, 0.5, rng));
  }
  EXPECT_GT(high.mean(), low.mean() + 50);
}

TEST(Thermal, MemoryHotterThanCore) {
  GpuThermalModel model;
  common::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const double core = model.core_temp_c(400.0, 30.0, rng);
    EXPECT_GT(model.mem_temp_c(core, rng), core);
  }
}

TEST(Thermal, HeavyLoadExceeds65C) {
  GpuThermalModel model;
  common::Rng rng(5);
  common::SampleStats s;
  for (int i = 0; i < 1000; ++i)
    s.add(model.core_temp_c(550.0, 32.0, rng));
  EXPECT_GT(s.quantile(0.5), 65.0);
}

TEST(ServerPower, BreakdownFractionsMatchFig9) {
  ServerPowerModel model(seren_spec().node);
  // 8 GPUs near TDP: GPUs should be ~2/3 of the server, CPUs ~11%, PSU ~10%.
  const auto b = model.gpu_server(8 * 400.0, 0.10);
  EXPECT_NEAR(b.gpu_w / b.total(), 2.0 / 3.0, 0.08);
  EXPECT_NEAR(b.cpu_w / b.total(), 0.112, 0.08);
  EXPECT_NEAR(b.psu_loss_w / b.total(), 0.096, 0.02);
}

TEST(ServerPower, GpuServerAboutFiveTimesCpuServer) {
  ServerPowerModel model(seren_spec().node);
  const double gpu_server = model.gpu_server(8 * 330.0, 0.10).total();
  const double cpu_server = model.cpu_server_w(0.3);
  EXPECT_NEAR(gpu_server / cpu_server, 5.0, 1.5);
}

TEST(Carbon, MatchesAppendixA3) {
  CarbonModel carbon;
  // Paper: Seren consumed ~673 MWh in May 2023 -> 321.7 tCO2e.
  EXPECT_NEAR(carbon.emissions_tco2e(673.0), 321.7, 1.0);
  EXPECT_DOUBLE_EQ(carbon.facility_energy_mwh(100.0), 125.0);
}

// --- Hierarchical domain tree (DESIGN.md §14) ---

TEST(DomainTree, LevelLayoutPartitionsNodesExactly) {
  const DomainShape shape{2, 4, 4};
  const DomainTree tree(64, shape);
  EXPECT_FALSE(tree.trivial());
  EXPECT_EQ(tree.node_count(), 64);
  EXPECT_EQ(tree.domains(DomainKind::kDatacenter).size(), 2u);
  EXPECT_EQ(tree.domains(DomainKind::kPod).size(), 8u);
  EXPECT_EQ(tree.domains(DomainKind::kSwitch).size(), 16u);
  EXPECT_EQ(tree.domain_count(), 1u + 2u + 8u + 16u);
  // Every level tiles [0, 64) contiguously, ids ascending with first_node.
  for (DomainKind kind : {DomainKind::kDatacenter, DomainKind::kPod,
                          DomainKind::kSwitch}) {
    NodeId next = 0;
    for (DomainId d : tree.domains(kind)) {
      EXPECT_EQ(tree.kind(d), kind);
      EXPECT_EQ(tree.first_node(d), next);
      EXPECT_GT(tree.domain_nodes(d), 0);
      next += static_cast<NodeId>(tree.domain_nodes(d));
    }
    EXPECT_EQ(next, 64u) << to_string(kind);
  }
  // Parents point one level up.
  for (DomainId d : tree.domains(DomainKind::kSwitch))
    EXPECT_EQ(tree.kind(tree.parent(d)), DomainKind::kPod);
  for (DomainId d : tree.domains(DomainKind::kPod))
    EXPECT_EQ(tree.kind(tree.parent(d)), DomainKind::kDatacenter);
  for (DomainId d : tree.domains(DomainKind::kDatacenter))
    EXPECT_EQ(tree.kind(tree.parent(d)), DomainKind::kRoot);
}

TEST(DomainTree, AncestorMatchesSpanBruteForce) {
  // Uneven split: 67 nodes over 3 DCs x 3 pods, 4-node switch groups. The
  // O(1) per-node ancestor arrays must agree with a brute-force scan of the
  // per-level spans.
  const DomainTree tree(67, DomainShape{3, 3, 4});
  for (NodeId node = 0; node < 67; ++node) {
    for (DomainKind kind : {DomainKind::kDatacenter, DomainKind::kPod,
                            DomainKind::kSwitch}) {
      DomainId expect = kInvalidDomain;
      for (DomainId d : tree.domains(kind)) {
        const NodeId first = tree.first_node(d);
        if (node >= first &&
            node < first + static_cast<NodeId>(tree.domain_nodes(d)))
          expect = d;
      }
      EXPECT_EQ(tree.ancestor(node, kind), expect)
          << "node " << node << " kind " << to_string(kind);
    }
    EXPECT_EQ(tree.ancestor(node, DomainKind::kRoot), 0u);
  }
}

TEST(DomainTree, SpannedCountsMatchBruteForce) {
  const DomainTree tree(96, DomainShape{3, 4, 2});
  common::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    // Contiguous span.
    const int first = static_cast<int>(rng.uniform_int(0, 95));
    const int count = static_cast<int>(rng.uniform_int(1, 96 - first));
    std::set<DomainId> pods, dcs;
    for (int n = first; n < first + count; ++n) {
      pods.insert(tree.pod_of(static_cast<NodeId>(n)));
      dcs.insert(tree.datacenter_of(static_cast<NodeId>(n)));
    }
    EXPECT_EQ(tree.pods_spanned(static_cast<NodeId>(first), count),
              static_cast<int>(pods.size()));
    EXPECT_EQ(tree.datacenters_spanned(static_cast<NodeId>(first), count),
              static_cast<int>(dcs.size()));
  }
}

TEST(DomainTree, TrivialShapeIsFlat) {
  const DomainTree tree(16, DomainShape{});
  EXPECT_TRUE(tree.trivial());
  EXPECT_EQ(tree.domains(DomainKind::kDatacenter).size(), 1u);
  EXPECT_EQ(tree.domains(DomainKind::kPod).size(), 1u);
  EXPECT_EQ(tree.domains(DomainKind::kSwitch).size(), 1u);
  EXPECT_EQ(tree.pods_spanned(0, 16), 1);
  EXPECT_EQ(tree.datacenters_spanned(0, 16), 1);
}

TEST(DomainTree, SubtreeCordonUncordonExactness) {
  // Cordoning a domain's [first_node, first_node + span) must cordon exactly
  // the nodes whose pod ancestor is that domain — no neighbours — and
  // uncordoning restores the ledger exactly.
  ClusterSpec spec = seren_spec();
  spec.node_count = 32;
  spec.topology = DomainShape{2, 2, 4};
  const DomainTree tree(spec);
  ClusterState state(spec);
  const int total_free = state.free_gpus();
  for (DomainId pod : tree.domains(DomainKind::kPod)) {
    const NodeId first = tree.first_node(pod);
    const int count = tree.domain_nodes(pod);
    for (int i = 0; i < count; ++i) state.cordon(first + static_cast<NodeId>(i));
    EXPECT_EQ(state.cordoned_count(), count);
    for (NodeId n = 0; n < 32; ++n)
      EXPECT_EQ(state.is_cordoned(n), tree.pod_of(n) == pod) << "node " << n;
    for (int i = 0; i < count; ++i)
      state.uncordon(first + static_cast<NodeId>(i));
    EXPECT_EQ(state.cordoned_count(), 0);
    EXPECT_EQ(state.free_gpus(), total_free);
  }
}

TEST(DomainTree, CorrelatedKillMembershipMatchesBruteForce) {
  // The scheduler's global-span resident query (what a domain outage kills)
  // must equal a brute-force filter of all running jobs by the global nodes
  // of their placements, for every pod subtree.
  cluster::ClusterSpec spec = seren_spec();
  spec.node_count = 16;
  spec.topology = DomainShape{2, 2, 2};
  const DomainTree tree(spec);
  sched::SchedulerConfig config;
  config.pretrain_reservation = 0.5;
  config.eval_cap_fraction = 0.5;
  sim::Engine engine;
  sched::SchedulerReplay replay(engine, spec, config);
  trace::Trace jobs;
  common::Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    trace::JobRecord j;
    j.id = static_cast<std::uint64_t>(i + 1);
    j.type = (i % 3 == 0) ? trace::WorkloadType::kPretrain
                          : trace::WorkloadType::kDebug;
    j.gpus = static_cast<int>(rng.uniform_int(1, 32));
    j.submit_time = static_cast<double>(i);
    j.duration = 500.0 + static_cast<double>(rng.uniform_int(0, 500));
    j.status = trace::JobStatus::kCompleted;
    jobs.push_back(j);
  }
  replay.begin_replay(std::move(jobs));
  while (engine.now() < 120.0 && engine.step(120.0)) {
  }
  std::vector<std::size_t> all, got;
  replay.running_jobs_on_nodes(0, replay.total_node_count(), all);
  ASSERT_FALSE(all.empty());
  for (std::size_t idx : all) {  // each placement covers its job's GPUs
    int gpus = 0;
    replay.for_each_node_of(idx, [&](int, int g) { gpus += g; });
    EXPECT_EQ(gpus, replay.active_job(idx).gpus);
  }
  for (DomainId pod : tree.domains(DomainKind::kPod)) {
    const int first = static_cast<int>(tree.first_node(pod));
    const int count = tree.domain_nodes(pod);
    std::vector<std::size_t> expect;
    for (std::size_t idx : all) {
      bool hit = false;
      replay.for_each_node_of(idx, [&](int node, int) {
        if (node >= first && node < first + count) hit = true;
      });
      if (hit) expect.push_back(idx);
    }
    replay.running_jobs_on_nodes(first, count, got);
    EXPECT_EQ(got, expect) << "pod " << pod;
  }
  engine.run();
  (void)replay.finish_replay();
}

TEST(DomainTree, LocalizationTtrGrowsWithBlastRadius) {
  // Recovery localization probes the whole cordoned subtree, so TTR must be
  // monotone in the blast radius: switch group < pod < datacenter spans.
  ClusterSpec spec = seren_spec();
  spec.node_count = 1024;
  spec.topology = DomainShape{2, 8, 8};
  comm::CollectiveModel model(comm::fabric_from_cluster(spec));
  const double switch_ttr = model.probe_round_seconds(8);
  const double pod_ttr = model.probe_round_seconds(64);
  const double dc_ttr = model.probe_round_seconds(512);
  EXPECT_LT(switch_ttr, pod_ttr);
  EXPECT_LT(pod_ttr, dc_ttr);
}

}  // namespace
}  // namespace acme::cluster
