// acme::snap — format round-trips, loud-failure paths, and save/restore of
// the leaf state holders (engine spine, rng, cluster ledger) plus the
// scheduler's snapshot footprint. World-level
// snapshot oracles live in test_determinism; parser hardening in test_world.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/state.h"
#include "sched/scheduler.h"
#include "common/check.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "snap/format.h"
#include "trace/job.h"

namespace {

using acme::common::CheckError;
using acme::snap::SnapshotReader;
using acme::snap::SnapshotWriter;

constexpr double kInf = std::numeric_limits<double>::infinity();

// (node, gpus) for each node of a placement, first to last.
std::vector<std::pair<int, int>> slices_of(const acme::cluster::ClusterState& state,
                                           const acme::cluster::Allocation& alloc) {
  std::vector<std::pair<int, int>> out;
  state.for_each_slice(alloc, [&](int node, int gpus) { out.emplace_back(node, gpus); });
  return out;
}

std::string one_section_bytes() {
  SnapshotWriter w;
  w.begin_section("alpha");
  w.write_u32(7);
  w.write_f64(2.5);
  w.end_section();
  return w.finish();
}

TEST(SnapFormat, PrimitivesRoundTrip) {
  SnapshotWriter w;
  w.begin_section("prims");
  w.write_bool(true);
  w.write_bool(false);
  w.write_u32(0xdeadbeefu);
  w.write_u64(0x0123456789abcdefULL);
  w.write_i64(-42);
  w.write_f64(3.141592653589793);
  w.write_string("hello snapshot");
  std::vector<std::uint32_t> pod{5, 4, 3, 2, 1};
  w.write_pod_vec(pod);
  w.end_section();
  w.begin_section("second");
  w.write_u32(11);
  w.end_section();

  SnapshotReader r(w.finish());
  EXPECT_EQ(r.version(), acme::snap::kFormatVersion);
  r.enter_section("prims");
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.141592653589793);
  EXPECT_EQ(r.read_string(), "hello snapshot");
  std::vector<std::uint32_t> back;
  r.read_pod_vec(back);
  EXPECT_EQ(back, pod);
  r.leave_section();
  r.enter_section("second");
  EXPECT_EQ(r.read_u32(), 11u);
  r.leave_section();
  EXPECT_TRUE(r.at_end());
}

// An empty vector's data() may be null; reading zero bytes into it must not
// hand memcpy a null pointer (UBSan nonnull-attribute) and must round-trip.
TEST(SnapFormat, WriterReusesAnAdoptedBuffer) {
  // A buffer left over from an earlier save (stale bytes, spare capacity)
  // must come back holding exactly the bytes a fresh writer writes, in the
  // same allocation.
  std::string buffer(1 << 16, 'x');
  const char* storage = buffer.data();
  SnapshotWriter w(std::move(buffer));
  w.begin_section("alpha");
  w.write_u32(7);
  w.write_f64(2.5);
  w.end_section();
  const std::string bytes = w.finish();
  EXPECT_EQ(bytes, one_section_bytes());
  EXPECT_EQ(bytes.data(), storage);
}

TEST(SnapFormat, EmptyPodArrayRoundTrips) {
  SnapshotWriter w;
  w.begin_section("empty");
  w.write_pod_vec(std::vector<std::uint64_t>{});
  w.write_pod_vec(std::vector<std::uint64_t>{});
  w.write_u32(7);
  w.end_section();

  SnapshotReader r(w.finish());
  r.enter_section("empty");
  std::vector<std::uint64_t> fresh;  // data() is null: nothing allocated yet
  r.read_pod_vec(fresh);
  EXPECT_TRUE(fresh.empty());
  std::vector<std::uint64_t> stale{1, 2, 3};
  r.read_pod_vec(stale);
  EXPECT_TRUE(stale.empty());
  EXPECT_EQ(r.read_u32(), 7u);  // the cursor did not move on the empty reads
  r.leave_section();
  EXPECT_TRUE(r.at_end());
}

TEST(SnapFormat, RejectsBadMagic) {
  std::string bytes = one_section_bytes();
  bytes[0] = 'X';
  EXPECT_THROW(SnapshotReader{std::move(bytes)}, CheckError);
}

TEST(SnapFormat, RejectsVersionSkew) {
  std::string bytes = one_section_bytes();
  bytes[8] = static_cast<char>(bytes[8] + 1);  // version u32, little end
  EXPECT_THROW(SnapshotReader{std::move(bytes)}, CheckError);
  // Version 3 stored slice lists, version 4 embedded the serve-shape
  // scenario keys and version 5 carried the serve fleet's P² sketches and
  // unsorted batches; none can be read as version 6.
  ASSERT_EQ(acme::snap::kFormatVersion, 6u);
  for (const char old : {3, 4, 5}) {
    std::string stale = one_section_bytes();
    stale[8] = old;
    EXPECT_THROW(SnapshotReader{std::move(stale)}, CheckError);
  }
}

TEST(SnapFormat, RejectsCorruptedPayload) {
  std::string bytes = one_section_bytes();
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);  // payload tail
  SnapshotReader r(std::move(bytes));
  EXPECT_THROW(r.enter_section("alpha"), CheckError);
}

TEST(SnapFormat, RejectsTruncation) {
  std::string bytes = one_section_bytes();
  bytes.resize(bytes.size() - 4);
  SnapshotReader r(std::move(bytes));
  EXPECT_THROW(r.enter_section("alpha"), CheckError);
}

TEST(SnapFormat, RejectsSectionNameMismatch) {
  SnapshotReader r(one_section_bytes());
  EXPECT_THROW(r.enter_section("beta"), CheckError);
}

TEST(SnapFormat, RejectsTagMismatch) {
  SnapshotReader r(one_section_bytes());
  r.enter_section("alpha");
  EXPECT_THROW(r.read_f64(), CheckError);  // first value is a u32
}

TEST(SnapFormat, RejectsPartialConsumption) {
  SnapshotReader r(one_section_bytes());
  r.enter_section("alpha");
  EXPECT_EQ(r.read_u32(), 7u);
  EXPECT_THROW(r.leave_section(), CheckError);  // f64 still unread
}

TEST(SnapFormat, RejectsPodElementSizeSkew) {
  SnapshotWriter w;
  w.begin_section("pods");
  std::vector<std::uint32_t> pod{1, 2, 3};
  w.write_pod_vec(pod);
  w.end_section();
  SnapshotReader r(w.finish());
  r.enter_section("pods");
  std::vector<std::uint64_t> wrong;
  EXPECT_THROW(r.read_pod_vec(wrong), CheckError);
}

TEST(SnapRng, StateRoundTripContinuesTheStream) {
  acme::common::Rng rng(987654321);
  for (int i = 0; i < 17; ++i) rng.next();
  acme::common::Rng clone;
  clone.set_state(rng.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next(), clone.next());
  // fork() mixes seed_material, which the state carries too.
  EXPECT_EQ(rng.fork("branch").next(), clone.fork("branch").next());
}

// The engine snapshot serializes queue structure only; callbacks are
// re-installed via rebind(). Pop order (and thus the whole downstream
// simulation) must be byte-identical.
TEST(SnapEngine, RoundTripPreservesFireOrder) {
  acme::sim::Engine a;
  std::vector<std::pair<int, double>> fired_a;
  std::vector<acme::sim::EventHandle> handles;
  // Ascending pushes land in the sorted run, descending in the heap; mix
  // both, plus a same-timestamp pair to pin insertion-order tie-breaks.
  const double times[] = {1.0, 2.0, 3.0, 2.5, 0.5, 2.5};
  for (int i = 0; i < 6; ++i)
    handles.push_back(a.schedule_at(
        times[i], [&fired_a, &a, i] { fired_a.push_back({i, a.now()}); }));
  // Cancel one and fire one before the snapshot so the free list, stale heap
  // entries and the clock are all non-trivial.
  ASSERT_TRUE(a.cancel(handles[3]));
  ASSERT_TRUE(a.step(kInf));  // fires event 4 (t = 0.5)
  ASSERT_EQ(fired_a.size(), 1u);

  SnapshotWriter w;
  a.save(w);
  SnapshotReader r(w.finish());

  acme::sim::Engine b;
  std::vector<std::pair<int, double>> fired_b;
  b.restore(r);
  EXPECT_EQ(b.now(), a.now());
  EXPECT_EQ(b.pending(), a.pending());
  // Rebind the still-pending events (0, 1, 2, 5) with the restored handles.
  for (const int i : {0, 1, 2, 5})
    b.rebind(handles[static_cast<std::size_t>(i)],
             [&fired_b, &b, i] { fired_b.push_back({i, b.now()}); });
  EXPECT_EQ(b.unbound(), 0u);

  while (a.step(kInf)) {
  }
  while (b.step(kInf)) {
  }
  fired_b.insert(fired_b.begin(), fired_a.front());  // pre-snapshot firing
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_EQ(a.now(), b.now());
}

TEST(SnapEngine, RestoreIntoLiveEngineFailsLoudly) {
  acme::sim::Engine a;
  a.schedule_at(1.0, [] {});
  SnapshotWriter w;
  a.save(w);
  SnapshotReader r(w.finish());

  acme::sim::Engine busy;
  busy.schedule_at(5.0, [] {});
  EXPECT_THROW(busy.restore(r), CheckError);
}

TEST(SnapEngine, ResetThenRestoreWorks) {
  acme::sim::Engine a;
  int hits = 0;
  auto h = a.schedule_at(2.0, [&hits] { ++hits; });
  SnapshotWriter w;
  a.save(w);

  acme::sim::Engine b;
  b.schedule_at(1.0, [] {});
  while (b.step(kInf)) {
  }
  EXPECT_THROW(
      {
        SnapshotReader r(w.finish());
        b.restore(r);  // clock advanced: still not fresh
      },
      CheckError);
  b.reset();
  SnapshotWriter w2;
  a.save(w2);
  SnapshotReader r2(w2.finish());
  b.restore(r2);
  b.rebind(h, [&hits] { ++hits; });
  EXPECT_EQ(b.unbound(), 0u);
  while (b.step(kInf)) {
  }
  EXPECT_EQ(hits, 1);
}

TEST(SnapEngine, RebindRejectsStaleAndDoubleBinds) {
  acme::sim::Engine a;
  auto h = a.schedule_at(1.0, [] {});
  SnapshotWriter w;
  a.save(w);
  SnapshotReader r(w.finish());
  acme::sim::Engine b;
  b.restore(r);
  b.rebind(h, [] {});
  EXPECT_THROW(b.rebind(h, [] {}), CheckError);  // already bound
  acme::sim::EventHandle stale;                  // seq 0: never pending
  EXPECT_THROW(b.rebind(stale, [] {}), CheckError);
}

// Lane entries (post(payload)) ride in the queue arrays verbatim: a mixed
// lane/slot queue pops in the same order after a round-trip, with only the
// slot events needing a rebind and the lane needing its handler again.
TEST(SnapEngine, MixedLaneAndSlotQueueRoundTripsInOrder) {
  acme::sim::Engine a;
  std::vector<std::pair<int, double>> fired_a;
  a.set_post_handler([&fired_a, &a](std::uint32_t p) {
    fired_a.push_back({static_cast<int>(p), a.now()});
  });
  std::vector<acme::sim::EventHandle> handles;
  // Ascending posts land in the sorted run; an out-of-order post and the
  // slot events exercise the heap; equal times pin seq tie-breaks.
  const double post_times[] = {1.0, 2.0, 2.0, 4.0, 0.75};
  for (std::uint32_t i = 0; i < 5; ++i) a.post(post_times[i], i);
  const double slot_times[] = {2.0, 0.5, 3.0};
  for (int i = 0; i < 3; ++i)
    handles.push_back(a.schedule_at(slot_times[i], [&fired_a, &a, i] {
      fired_a.push_back({100 + i, a.now()});
    }));
  ASSERT_TRUE(a.step(kInf));  // fires slot 1 (t = 0.5)
  ASSERT_TRUE(a.step(kInf));  // fires lane 4 (t = 0.75)
  ASSERT_EQ(fired_a.size(), 2u);

  SnapshotWriter w;
  a.save(w);
  SnapshotReader r(w.finish());
  acme::sim::Engine b;
  std::vector<std::pair<int, double>> fired_b;
  b.restore(r);
  EXPECT_EQ(b.pending(), a.pending());
  EXPECT_EQ(b.pending(), 6u);  // four lane events + two slot events
  EXPECT_EQ(b.unbound(), 2u);  // only slot events need a rebind
  b.set_post_handler([&fired_b, &b](std::uint32_t p) {
    fired_b.push_back({static_cast<int>(p), b.now()});
  });
  for (const int i : {0, 2})
    b.rebind(handles[static_cast<std::size_t>(i)], [&fired_b, &b, i] {
      fired_b.push_back({100 + i, b.now()});
    });
  EXPECT_EQ(b.unbound(), 0u);

  // Saving the restored engine again writes the same bytes.
  SnapshotWriter w2;
  b.save(w2);
  SnapshotWriter w1;
  a.save(w1);
  EXPECT_EQ(w2.finish(), w1.finish());

  while (a.step(kInf)) {
  }
  while (b.step(kInf)) {
  }
  fired_b.insert(fired_b.begin(), fired_a.begin(), fired_a.begin() + 2);
  EXPECT_EQ(fired_a, fired_b);
  const std::vector<std::pair<int, double>> want = {
      {101, 0.5}, {4, 0.75}, {0, 1.0}, {1, 2.0}, {2, 2.0},
      {100, 2.0}, {102, 3.0}, {3, 4.0}};
  EXPECT_EQ(fired_a, want);
}

TEST(SnapEngine, RestoredLaneWithoutHandlerFailsLoudly) {
  acme::sim::Engine a;
  a.set_post_handler([](std::uint32_t) {});
  a.post(1.0, 3);
  SnapshotWriter w;
  a.save(w);
  SnapshotReader r(w.finish());
  acme::sim::Engine b;
  b.restore(r);
  EXPECT_EQ(b.unbound(), 0u);  // nothing to rebind, but a handler is owed
  EXPECT_THROW(b.step(kInf), CheckError);
  EXPECT_EQ(b.pending(), 1u);  // the event was not consumed
  int seen = -1;
  b.set_post_handler([&seen](std::uint32_t p) { seen = static_cast<int>(p); });
  EXPECT_TRUE(b.step(kInf));
  EXPECT_EQ(seen, 3);
}

// A freshly armed replay's snapshot is the trace plus one 16-byte lane entry
// per submission: no per-job runtime record, slot generation or submission
// handle rides along.
TEST(SnapSched, FreshlyArmedReplayFootprintIsTraceBound) {
  const acme::cluster::ClusterSpec spec = acme::cluster::seren_spec();
  acme::trace::Trace jobs;
  constexpr std::size_t kJobs = 20000;
  for (std::size_t i = 0; i < kJobs; ++i) {
    acme::trace::JobRecord job;
    job.type = i % 5 == 0 ? acme::trace::WorkloadType::kEvaluation
                          : acme::trace::WorkloadType::kSFT;
    job.gpus = 1 + static_cast<int>(i % 16);
    job.submit_time = static_cast<double>(i) * 30.0;
    job.duration = 600.0;
    jobs.push_back(job);
  }
  acme::sim::Engine engine;
  acme::sched::SchedulerReplay replay(engine, spec,
                                      acme::sched::seren_scheduler_config());
  replay.begin_replay(std::move(jobs), /*sample_interval=*/3600.0);
  SnapshotWriter w;
  engine.save(w);
  replay.save(w);
  const std::size_t bytes = w.finish().size();
  EXPECT_LE(bytes, kJobs * (sizeof(acme::trace::JobRecord) + 16) + (64u << 10));
}

// Overwrites node `node`'s gang link in the first (reserved-partition)
// cluster.state section and re-seals the section's CRC, as a hand-edited
// snapshot would.
std::string with_gang_link(std::string bytes, int node, std::int64_t link) {
  const std::string name = "cluster.state";
  const std::size_t len_at = bytes.find(name) + name.size();
  std::uint64_t payload_len = 0;
  std::memcpy(&payload_len, bytes.data() + len_at, sizeof(payload_len));
  const std::size_t crc_at = len_at + sizeof(payload_len);
  const std::size_t payload = crc_at + sizeof(std::uint32_t);
  // Payload: node count (tag + u64), then per node gpus_free (tag + i64),
  // cordoned (tag + u8) and the link (tag + i64).
  const std::size_t link_at = payload + 9 + static_cast<std::size_t>(node) * 20 + 12;
  std::memcpy(bytes.data() + link_at, &link, sizeof(link));
  const std::uint32_t crc = acme::snap::crc32(bytes.data() + payload, payload_len);
  std::memcpy(bytes.data() + crc_at, &crc, sizeof(crc));
  return bytes;
}

// Two 2-node pretraining gangs run on reserved nodes 0-1 and 2-3. A restore
// accepts the saved links and rejects a chain that is too short, too long,
// or that shares a node with another gang.
TEST(SnapSched, RestoreRejectsGangChainsThatDoNotMatchTheirJobs) {
  acme::cluster::ClusterSpec spec = acme::cluster::seren_spec();
  spec.node_count = 8;
  acme::sched::SchedulerConfig config;
  config.pretrain_reservation = 0.5;
  acme::trace::Trace jobs;
  for (int i = 0; i < 2; ++i) {
    acme::trace::JobRecord job;
    job.type = acme::trace::WorkloadType::kPretrain;
    job.gpus = 2 * spec.node.gpus;
    job.duration = 1000.0;
    jobs.push_back(job);
  }
  acme::sim::Engine engine;
  acme::sched::SchedulerReplay replay(engine, spec, config);
  replay.begin_replay(std::move(jobs));
  engine.run_until(1.0);
  ASSERT_EQ(replay.running_jobs(), 2);
  SnapshotWriter w;
  engine.save(w);
  replay.save(w);
  const std::string bytes = w.finish();

  const auto restore = [&](std::string snapshot) {
    SnapshotReader r(std::move(snapshot));
    acme::sim::Engine e;
    acme::sched::SchedulerReplay s(e, spec, config);
    e.restore(r);
    s.restore_replay(r);
  };
  EXPECT_NO_THROW(restore(bytes));
  EXPECT_THROW(restore(with_gang_link(bytes, 0, -1)), CheckError);  // 0 alone
  EXPECT_THROW(restore(with_gang_link(bytes, 1, 2)), CheckError);   // 0-1-2-3
  EXPECT_THROW(restore(with_gang_link(bytes, 0, 3)), CheckError);   // 0-3, 2-3
}

TEST(SnapCluster, LedgerRoundTripMatchesPlacementDecisions) {
  acme::cluster::ClusterSpec spec;
  spec.node_count = 8;
  acme::cluster::ClusterState a(spec);
  auto big = a.try_allocate(2 * spec.node.gpus);  // two whole nodes
  ASSERT_TRUE(big.has_value());
  auto small = a.try_allocate(3);
  ASSERT_TRUE(small.has_value());
  a.cordon(5);

  SnapshotWriter w;
  a.save(w);
  SnapshotReader r(w.finish());
  acme::cluster::ClusterState b(spec);
  b.restore(r);

  EXPECT_EQ(b.free_gpus(), a.free_gpus());
  EXPECT_EQ(b.free_gpus_including_cordoned(), a.free_gpus_including_cordoned());
  EXPECT_EQ(b.empty_healthy_nodes(), a.empty_healthy_nodes());
  EXPECT_EQ(b.cordoned_count(), 1);
  EXPECT_TRUE(b.is_cordoned(5));
  // The restored bucket index must drive identical best-fit decisions.
  auto next_a = a.try_allocate(4);
  auto next_b = b.try_allocate(4);
  ASSERT_TRUE(next_a.has_value());
  ASSERT_TRUE(next_b.has_value());
  EXPECT_EQ(slices_of(a, *next_a), slices_of(b, *next_b));
  // The restored gang links let the restored ledger release the gang placed
  // before the save; both then place the next gang identically.
  EXPECT_TRUE(b.chain_matches(*big));
  a.release(*big);
  b.release(*big);
  EXPECT_EQ(b.free_gpus(), a.free_gpus());
  auto gang_a = a.try_allocate(3 * spec.node.gpus + 1);
  auto gang_b = b.try_allocate(3 * spec.node.gpus + 1);
  ASSERT_TRUE(gang_a.has_value());
  ASSERT_TRUE(gang_b.has_value());
  EXPECT_EQ(slices_of(a, *gang_a), slices_of(b, *gang_b));
}

TEST(SnapCluster, RestoreRejectsOutOfRangeLinksAndCounts) {
  acme::cluster::ClusterSpec spec;
  spec.node_count = 2;
  acme::cluster::ClusterState a(spec);
  SnapshotWriter w;
  a.save(w);
  std::string bytes = w.finish();
  // The section a save of two idle nodes writes (node count, then per node
  // free GPUs, cordon flag, gang link), with node 1's values replaced: a
  // link past the ledger or below -1, or a free count that only fits in
  // range once narrowed to 32 bits.
  const auto forge = [&](std::int64_t node1_free, std::int64_t node1_link) {
    SnapshotWriter forged;
    forged.begin_section("cluster.state");
    forged.write_u64(2);
    for (int n = 0; n < 2; ++n) {
      forged.write_i64(n == 1 ? node1_free : spec.node.gpus);
      forged.write_bool(false);
      forged.write_i64(n == 1 ? node1_link : -1);
    }
    forged.end_section();
    return forged.finish();
  };
  ASSERT_EQ(forge(spec.node.gpus, -1), bytes);  // the layout of a real save
  acme::cluster::ClusterState b(spec);
  SnapshotReader good(std::move(bytes));
  EXPECT_NO_THROW(b.restore(good));
  const std::pair<std::int64_t, std::int64_t> bad_values[] = {
      {8, 2}, {8, -2}, {(std::int64_t{1} << 32) + 8, -1}};
  for (const auto& [gpus_free, link] : bad_values) {
    acme::cluster::ClusterState c(spec);
    SnapshotReader bad(forge(gpus_free, link));
    EXPECT_THROW(c.restore(bad), CheckError) << "free " << gpus_free << " link " << link;
  }
}

TEST(SnapCluster, RestoreRejectsNodeCountMismatch) {
  acme::cluster::ClusterSpec spec;
  spec.node_count = 4;
  acme::cluster::ClusterState a(spec);
  SnapshotWriter w;
  a.save(w);
  SnapshotReader r(w.finish());
  acme::cluster::ClusterSpec other = spec;
  other.node_count = 5;
  acme::cluster::ClusterState b(other);
  EXPECT_THROW(b.restore(r), CheckError);
}

}  // namespace
