// acme::task pool primitives: the work-stealing substrate that runs Monte
// Carlo replicas. Checks parallel_for coverage, WaitGroup barrier + exception
// transport, steal rebalancing of an imbalanced spawn burst, nested spawn,
// and ring growth past the initial capacity.
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "task/task.h"

namespace acme {
namespace {

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

}  // namespace
}  // namespace acme
