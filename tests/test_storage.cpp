#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "storage/network.h"

namespace acme::storage {
namespace {

StorageNetworkConfig small_config() {
  StorageNetworkConfig c;
  c.backend_bytes_per_sec = 100.0;
  c.node_nic_bytes_per_sec = 10.0;
  return c;
}

TEST(StorageNetwork, SingleFlowGetsNodeNicRate) {
  sim::Engine engine;
  StorageNetwork net(engine, small_config());
  double done_at = -1;
  net.start_flow(0, 50.0, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);  // 50 bytes at 10 B/s node cap
}

TEST(StorageNetwork, EightFlowsOnOneNodeShareNic) {
  sim::Engine engine;
  StorageNetwork net(engine, small_config());
  std::vector<double> done(8, -1);
  for (int i = 0; i < 8; ++i)
    net.start_flow(0, 10.0, [&, i] { done[static_cast<std::size_t>(i)] = engine.now(); });
  engine.run();
  // 8 equal flows, 10 B/s NIC: each at 1.25 B/s -> 8 s.
  for (double d : done) EXPECT_NEAR(d, 8.0, 1e-6);
}

TEST(StorageNetwork, FlowsOnDistinctNodesIndependentUntilBackend) {
  sim::Engine engine;
  StorageNetwork net(engine, small_config());
  std::vector<double> done(4, -1);
  for (int i = 0; i < 4; ++i)
    net.start_flow(i, 10.0, [&, i] { done[static_cast<std::size_t>(i)] = engine.now(); });
  engine.run();
  // 4 nodes x 10 B/s = 40 <= backend 100: each runs at full NIC rate.
  for (double d : done) EXPECT_NEAR(d, 1.0, 1e-6);
}

TEST(StorageNetwork, BackendCapBindsAcrossManyNodes) {
  sim::Engine engine;
  StorageNetworkConfig c = small_config();  // backend 100
  StorageNetwork net(engine, c);
  std::vector<double> done(20, -1);
  for (int i = 0; i < 20; ++i)
    net.start_flow(i, 10.0, [&, i] { done[static_cast<std::size_t>(i)] = engine.now(); });
  engine.run();
  // 20 flows, backend 100 B/s -> 5 B/s each -> 2 s.
  for (double d : done) EXPECT_NEAR(d, 2.0, 1e-6);
}

TEST(StorageNetwork, LateArrivalRebalancesFairly) {
  sim::Engine engine;
  StorageNetwork net(engine, small_config());
  double first = -1, second = -1;
  net.start_flow(0, 10.0, [&] { first = engine.now(); });
  engine.schedule_at(0.5, [&] {
    net.start_flow(0, 10.0, [&] { second = engine.now(); });
  });
  engine.run();
  // First: 5 bytes alone in 0.5 s, then 5 more at the fair share of 5 B/s
  // -> finishes at 1.5 s. Second: 5 bytes at 5 B/s until the first leaves,
  // then the last 5 at the full 10 B/s -> finishes at 2.0 s.
  EXPECT_NEAR(first, 1.5, 1e-6);
  EXPECT_NEAR(second, 2.0, 1e-6);
}

TEST(StorageNetwork, CancelStopsCallback) {
  sim::Engine engine;
  StorageNetwork net(engine, small_config());
  bool fired = false;
  auto id = net.start_flow(0, 100.0, [&] { fired = true; });
  engine.schedule_at(1.0, [&] { net.cancel(id); });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(StorageNetwork, CancelAfterCompletionIsNoOp) {
  sim::Engine engine;
  StorageNetwork net(engine, small_config());
  int fired = 0;
  const auto id = net.start_flow(0, 10.0, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  // The flow already completed; cancelling its stale id must neither throw
  // nor disturb the (empty) flow table.
  net.cancel(id);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(net.active_flows(), 0u);
  // And the network still works afterwards.
  net.start_flow(0, 10.0, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(StorageNetwork, ZeroByteFlowRejected) {
  sim::Engine engine;
  StorageNetwork net(engine, small_config());
  EXPECT_THROW(net.start_flow(0, 0.0, [] {}), common::CheckError);
  EXPECT_THROW(net.start_flow(0, -1.0, [] {}), common::CheckError);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(StorageNetwork, FairShareRecoversAfterMidFlightDeparture) {
  sim::Engine engine;
  StorageNetwork net(engine, small_config());  // node NIC 10 B/s
  double survivor_done = -1;
  const auto doomed = net.start_flow(0, 100.0, [] {});
  const auto survivor = net.start_flow(0, 10.0, [&] { survivor_done = engine.now(); });
  double rate_before = -1, rate_after = -1;
  engine.schedule_at(0.5, [&] {
    rate_before = net.flow_rate(survivor);
    net.cancel(doomed);
    rate_after = net.flow_rate(survivor);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(rate_before, 5.0);   // two flows sharing the 10 B/s NIC
  EXPECT_DOUBLE_EQ(rate_after, 10.0);   // departure hands back the full NIC
  // 2.5 bytes at 5 B/s, then 7.5 bytes at 10 B/s -> done at 1.25 s.
  EXPECT_NEAR(survivor_done, 1.25, 1e-9);
  EXPECT_DOUBLE_EQ(net.flow_rate(doomed), 0.0);  // unknown id reads zero
}

TEST(StorageNetwork, CompletionCallbackCanStartNewFlow) {
  sim::Engine engine;
  StorageNetwork net(engine, small_config());
  double chained_done = -1;
  net.start_flow(0, 10.0, [&] {
    net.start_flow(0, 10.0, [&] { chained_done = engine.now(); });
  });
  engine.run();
  EXPECT_NEAR(chained_done, 2.0, 1e-6);
}

// The Fig 16-left shape: per-trial loading speed collapses ~8x going from 1
// to 8 single-GPU trials on one node, then stays flat from 8 to 256 GPUs
// (each node's NIC is the bottleneck for its own 8 trials).
TEST(StorageNetwork, Fig16LoadingContentionShape) {
  const auto config = seren_storage_config();
  auto per_trial_speed = [&](int trials) {
    sim::Engine engine;
    StorageNetwork net(engine, config);
    const double bytes = 14.6e9;
    std::vector<double> done;
    done.resize(static_cast<std::size_t>(trials), 0);
    for (int i = 0; i < trials; ++i) {
      const int node = i / 8;
      net.start_flow(node, bytes,
                     [&, i] { done[static_cast<std::size_t>(i)] = engine.now(); });
    }
    engine.run();
    double total = 0;
    for (double d : done) total += bytes / d;
    return total / trials;  // mean per-trial throughput
  };
  const double v1 = per_trial_speed(1);
  const double v8 = per_trial_speed(8);
  const double v64 = per_trial_speed(64);
  const double v256 = per_trial_speed(256);
  EXPECT_NEAR(v1 / v8, 8.0, 0.2);      // sharp decline 1 -> 8
  EXPECT_NEAR(v8 / v64, 1.0, 0.05);    // flat 8 -> 64
  EXPECT_NEAR(v8 / v256, 1.0, 0.35);   // near-flat to 256 (backend bends it)
}

// Property: under a random arrival/cancel workload, (a) all surviving flows
// complete, (b) completion order respects work conservation (total bytes
// delivered never exceeds capacity x time).
class StorageStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageStress, RandomFlowsAllCompleteWithinCapacity) {
  sim::Engine engine;
  StorageNetworkConfig config;
  config.backend_bytes_per_sec = 50.0;
  config.node_nic_bytes_per_sec = 10.0;
  StorageNetwork net(engine, config);
  common::Rng rng(GetParam());

  double total_bytes = 0;
  int completed = 0;
  int launched = 0;
  std::vector<FlowId> cancellable;
  const auto launch_flow = [&] {
    const double bytes = rng.uniform(1.0, 200.0);
    const int node = static_cast<int>(rng.uniform_int(0, 9));
    total_bytes += bytes;
    ++launched;
    const FlowId id = net.start_flow(node, bytes, [&] { ++completed; });
    if (rng.bernoulli(0.2)) cancellable.push_back(id);
  };
  // Staggered arrivals over 100 s.
  for (int i = 0; i < 60; ++i) {
    const double at = rng.uniform(0, 100);
    engine.schedule_at(at, [&launch_flow] { launch_flow(); });
  }
  engine.schedule_at(50.0, [&] {
    for (FlowId id : cancellable) net.cancel(id);
  });
  engine.run();
  const double elapsed = engine.now();
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(completed, 0);
  EXPECT_LE(completed, launched);
  // Work conservation: the backend cannot have moved more than cap x time.
  EXPECT_LE(total_bytes * 0.5, config.backend_bytes_per_sec * elapsed + 200.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageStress, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace acme::storage
