// acme::task pool primitives and the window-partitioner property test.
//
// The pool half checks the work-stealing substrate directly: parallel_for
// coverage, WaitGroup barrier + exception transport, steal rebalancing of an
// imbalanced spawn burst, nested spawn, ring growth past the initial
// capacity. The property half is the determinism contract that matters: for
// random partition sets, random event chains (with cancellations) and random
// lookahead windows, sim::WindowRunner's merged commit stream must equal the
// serial single-heap reference — the global (time, key, seq) sort of every
// partition's serial pop order — at every pool width, and the commit digest
// must pin the exact 16-byte (time-bits, key, seq) packing.
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/digest.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "sim/window.h"
#include "task/task.h"

namespace acme {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- pool ----

TEST(TaskPool, ZeroWorkersPicksAtLeastOneThread) {
  task::Pool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(TaskPool, ParallelForCoversEveryIndexExactlyOnce) {
  task::Pool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 7,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TaskPool, ParallelForZeroAndTinyRanges) {
  task::Pool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(3, 100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
  pool.parallel_for(5, 0, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);  // grain 0 is clamped to 1
}

// parallel_for keeps a pointer to the callable; a named lambda or a const
// std::function reference (F deduced as an lvalue reference) must compile
// and run exactly like a temporary.
TEST(TaskPool, ParallelForAcceptsNamedCallable) {
  task::Pool pool(3);
  std::vector<std::atomic<int>> hits(50);
  const auto bump = [&](std::size_t i) { hits[i].fetch_add(1); };
  pool.parallel_for(hits.size(), 4, bump);
  const std::function<void(std::size_t)> fn = bump;
  const std::function<void(std::size_t)>& ref = fn;
  pool.parallel_for(hits.size(), 0, ref);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 2) << "index " << i;
}

TEST(TaskPool, SpawnRunsEveryTaskOnce) {
  task::Pool pool(3);
  std::atomic<int> count{0};
  task::WaitGroup wg;
  for (std::size_t i = 0; i < 500; ++i)
    pool.spawn(wg, i, [&] { count.fetch_add(1); });
  wg.wait();
  EXPECT_EQ(count.load(), 500);
  EXPECT_GE(pool.tasks_run(), 500u);
}

TEST(TaskPool, WaitGroupRethrowsFirstTaskErrorAndStaysReusable) {
  task::Pool pool(2);
  task::WaitGroup wg;
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i)
    pool.spawn(wg, static_cast<std::size_t>(i), [&, i] {
      ran.fetch_add(1);
      if (i == 5) throw std::runtime_error("partition blew up");
    });
  EXPECT_THROW(wg.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // the barrier still waited for every task

  // The error was consumed by wait(); the group is reusable.
  pool.spawn(wg, 0, [&] { ran.fetch_add(1); });
  EXPECT_NO_THROW(wg.wait());
  EXPECT_EQ(ran.load(), 17);
}

TEST(TaskPool, StealsRebalanceAnImbalancedSpawnBurst) {
  // Every task lands on worker 0's deque; the other workers have nothing to
  // pop and must steal. Each task holds its worker briefly so the burst
  // cannot be drained before the thieves wake up.
  task::Pool pool(4);
  task::WaitGroup wg;
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i)
    pool.spawn(wg, 0, [&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      count.fetch_add(1);
    });
  wg.wait();
  EXPECT_EQ(count.load(), 64);
  EXPECT_GT(pool.steals(), 0u);
}

TEST(TaskPool, NestedSpawnOnTheSharedGroup) {
  // Outer tasks spawn inner tasks on the same pool and group; the
  // coordinating thread's single wait() covers both generations. (Workers
  // never block on the group — only the coordinator waits.)
  task::Pool pool(4);
  task::WaitGroup wg;
  std::atomic<int> inner{0};
  for (std::size_t o = 0; o < 8; ++o)
    pool.spawn(wg, o, [&pool, &wg, &inner, o] {
      for (std::size_t i = 0; i < 8; ++i)
        pool.spawn(wg, o + i, [&inner] { inner.fetch_add(1); });
    });
  wg.wait();
  EXPECT_EQ(inner.load(), 64);
}

TEST(TaskPool, RingGrowsPastTheInitialCapacityUnreserved) {
  task::Pool pool(2);
  std::atomic<int> count{0};
  task::WaitGroup wg;
  for (std::size_t i = 0; i < 10000; ++i)
    pool.spawn(wg, 0, [&] { count.fetch_add(1); });
  wg.wait();
  EXPECT_EQ(count.load(), 10000);
}

TEST(TaskWaitGroup, BarrierWithoutPool) {
  task::WaitGroup wg;
  wg.add(2);
  std::thread a([&] { wg.done(); });
  std::thread b([&] { wg.done(); });
  wg.wait();  // returns only after both done() calls
  a.join();
  b.join();
}

// ---------------------------------------------- window property test ----

// A deterministic per-partition schedule: root events at fixed times, each
// possibly heading a chain of follow-ups (scheduled from inside the firing
// callback, like real subsystems do), plus doomed events cancelled at setup
// so the stale-entry path in next_event_time()/run_window() gets exercised.
struct PartitionPlan {
  struct Root {
    double time = 0;
    double offset = 0;  // follow-up spacing
    int chain = 0;      // follow-ups after the root
  };
  std::vector<Root> roots;
  std::vector<double> doomed;  // scheduled then immediately cancelled
};

PartitionPlan make_plan(common::Rng& rng, double horizon) {
  PartitionPlan plan;
  const int roots = static_cast<int>(rng.uniform_int(1, 30));
  for (int i = 0; i < roots; ++i) {
    PartitionPlan::Root r;
    r.time = rng.uniform(0, horizon);
    r.offset = rng.uniform(0.01, horizon / 4);
    r.chain = static_cast<int>(rng.uniform_int(0, 4));
    plan.roots.push_back(r);
  }
  const int doomed = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < doomed; ++i)
    plan.doomed.push_back(rng.uniform(0, horizon));
  return plan;
}

void schedule_chain(sim::Engine& engine, double t, double offset,
                    int remaining) {
  engine.schedule_at(t, [&engine, t, offset, remaining] {
    if (remaining > 0)
      schedule_chain(engine, t + offset, offset, remaining - 1);
  });
}

void apply_plan(sim::Engine& engine, const PartitionPlan& plan) {
  for (const auto& r : plan.roots)
    schedule_chain(engine, r.time, r.offset, r.chain);
  for (double t : plan.doomed) {
    sim::EventHandle h = engine.schedule_at(t, [] {});
    ASSERT_TRUE(engine.cancel(h));
  }
}

using MergedCommit = std::tuple<double, std::uint32_t, std::uint32_t>;

// The serial single-heap reference: each partition's full commit log is its
// engine's serial pop order; the global merge is one sort by (time, key,
// seq). Also folds the reference digest with the same 16-byte packing the
// runner uses, so the digest format itself is pinned here.
void reference_merge(const std::vector<PartitionPlan>& plans,
                     std::vector<MergedCommit>* merged,
                     std::uint64_t* digest) {
  merged->clear();
  for (std::size_t k = 0; k < plans.size(); ++k) {
    sim::Engine engine;
    apply_plan(engine, plans[k]);
    std::vector<sim::Commit> log;
    engine.run_window(kInf, log);
    for (const sim::Commit& c : log)
      merged->emplace_back(c.time, static_cast<std::uint32_t>(k), c.seq);
  }
  std::sort(merged->begin(), merged->end());
  common::Fnv1a fold;
  for (const auto& [time, key, seq] : *merged) {
    std::uint64_t time_bits = 0;
    std::memcpy(&time_bits, &time, sizeof(time_bits));
    unsigned char buf[16];
    std::memcpy(buf, &time_bits, 8);
    std::memcpy(buf + 8, &key, 4);
    std::memcpy(buf + 12, &seq, 4);
    fold.update(
        std::string_view(reinterpret_cast<const char*>(buf), sizeof(buf)));
  }
  *digest = fold.digest();
}

TEST(WindowPartitioner, MergedOrderEqualsSerialSingleHeapReference) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    common::Rng rng(9000 + trial);
    const double horizon = rng.uniform(10, 200);
    const std::size_t partitions = 1 + static_cast<std::size_t>(trial % 4);
    std::vector<PartitionPlan> plans;
    for (std::size_t k = 0; k < partitions; ++k)
      plans.push_back(make_plan(rng, horizon));

    std::vector<MergedCommit> reference;
    std::uint64_t reference_digest = 0;
    reference_merge(plans, &reference, &reference_digest);
    ASSERT_FALSE(reference.empty());

    // Seeded random lookaheads, always including the one-window drain.
    std::vector<double> lookaheads = {kInf, rng.uniform(0.05, horizon / 8),
                                      rng.uniform(horizon / 8, horizon)};
    for (double lookahead : lookaheads) {
      for (std::size_t workers : {std::size_t{0}, std::size_t{1},
                                  std::size_t{2}, std::size_t{4}}) {
        std::vector<std::unique_ptr<sim::Engine>> engines;
        sim::WindowRunner runner;
        std::vector<MergedCommit> merged;
        for (std::size_t k = 0; k < partitions; ++k) {
          engines.push_back(std::make_unique<sim::Engine>());
          apply_plan(*engines[k], plans[k]);
          runner.add_partition(*engines[k], static_cast<std::uint32_t>(k));
        }
        runner.set_sink([&merged](std::uint32_t key, const sim::Commit& c) {
          merged.emplace_back(c.time, key, c.seq);
        });
        std::optional<task::Pool> pool;
        if (workers > 0) pool.emplace(workers);
        const sim::WindowStats stats =
            runner.run(pool ? &*pool : nullptr, lookahead);
        ASSERT_EQ(merged, reference)
            << "trial " << trial << " lookahead " << lookahead << " workers "
            << workers;
        ASSERT_EQ(runner.commit_digest(), reference_digest);
        ASSERT_EQ(stats.events, reference.size());
      }
    }
  }
}

TEST(WindowPartitioner, DigestAccumulatesAcrossResumedRuns) {
  // Splitting one drain into run(); schedule-more; run() again must give the
  // same cumulative digest as the uninterrupted drain — the property that
  // lets a partition resume mid-stream across run() calls. Insertion order
  // is identical in both tellings, so the (time, seq) streams match.
  const auto schedule_batch = [](sim::Engine& e, int from, int to) {
    for (int i = from; i < to; ++i)
      e.schedule_at(i * 1.5, [] {});
  };
  std::uint64_t straight = 0;
  {
    sim::Engine e;
    schedule_batch(e, 0, 20);
    sim::WindowRunner runner;
    runner.add_partition(e, 0);
    runner.run(nullptr, kInf);
    straight = runner.commit_digest();
  }
  sim::Engine e;
  schedule_batch(e, 0, 10);
  sim::WindowRunner runner;
  runner.add_partition(e, 0);
  const sim::WindowStats first = runner.run(nullptr, 7.0);
  EXPECT_EQ(first.events, 10u);
  schedule_batch(e, 10, 20);  // "restored" work lands on the same stream
  const sim::WindowStats second = runner.run(nullptr, 7.0);
  EXPECT_EQ(second.events, 10u);  // run() returns per-call deltas
  EXPECT_EQ(runner.commit_digest(), straight);
  EXPECT_EQ(runner.stats().events, 20u);  // stats() stays cumulative
}

TEST(WindowPartitioner, FiniteLookaheadMakesProgressAtLargeTimestamps) {
  // At large t0 a small Δ rounds t0 + Δ back to exactly t0 (ulp(1e16) = 2),
  // which used to leave every partition outside the half-open window and
  // spin run() forever. The runner must widen to the next representable
  // instant and drain the t0 event.
  constexpr double kHuge = 1e16;
  ASSERT_EQ(kHuge + 1.0, kHuge);  // the rounding that triggers the bug
  sim::Engine e;
  int fired = 0;
  e.schedule_at(kHuge, [&fired] { ++fired; });
  e.schedule_at(kHuge + 4.0, [&fired] { ++fired; });
  sim::WindowRunner runner;
  runner.add_partition(e, 0);
  const sim::WindowStats stats = runner.run(nullptr, 1.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_EQ(stats.windows, 2u);  // one degenerate window per event
}

TEST(WindowPartitioner, DeltaMaxWindowEventsIsPerCall) {
  // run() returns a delta; its busiest-round figure must describe THAT call,
  // not the all-time max (which stats() keeps).
  sim::Engine e;
  for (int i = 0; i < 6; ++i) e.schedule_at(i * 1.0, [] {});
  sim::WindowRunner runner;
  runner.add_partition(e, 0);
  const sim::WindowStats first = runner.run(nullptr, kInf);
  EXPECT_EQ(first.max_window_events, 6u);
  for (int i = 6; i < 9; ++i) e.schedule_at(i * 1.0, [] {});
  const sim::WindowStats second = runner.run(nullptr, kInf);
  EXPECT_EQ(second.max_window_events, 3u);
  EXPECT_EQ(runner.stats().max_window_events, 6u);  // cumulative keeps 6
}

TEST(WindowPartitioner, AddPartitionAfterRunStartedIsRejected) {
  sim::Engine a;
  a.schedule_at(1.0, [] {});
  sim::WindowRunner runner;
  runner.add_partition(a, 0);
  runner.run(nullptr, kInf);
  sim::Engine b;
  EXPECT_THROW(runner.add_partition(b, 1), common::CheckError);
}

}  // namespace
}  // namespace acme
