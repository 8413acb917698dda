// acme::task::parallel_for: the execution substrate that runs Monte Carlo
// replicas. Checks index coverage, empty and tiny ranges, named callables,
// thread-count resolution and the lowest-failing-index exception rule.
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "task/task.h"

namespace acme {
namespace {

TEST(TaskParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  task::parallel_for(4, hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TaskParallelFor, ZeroAndTinyRanges) {
  std::atomic<int> count{0};
  task::parallel_for(2, 0, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  task::parallel_for(2, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
  task::parallel_for(2, 3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

// A named lambda or a const std::function reference (F deduced as an lvalue
// reference) must compile and run exactly like a temporary.
TEST(TaskParallelFor, AcceptsNamedCallable) {
  std::vector<std::atomic<int>> hits(50);
  const auto bump = [&](std::size_t i) { hits[i].fetch_add(1); };
  task::parallel_for(3, hits.size(), bump);
  const std::function<void(std::size_t)> fn = bump;
  const std::function<void(std::size_t)>& ref = fn;
  task::parallel_for(3, hits.size(), ref);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 2) << "index " << i;
}

TEST(TaskParallelFor, ZeroThreadsPicksHardwareConcurrency) {
  EXPECT_GE(task::resolve_threads(0), 1u);
  EXPECT_EQ(task::resolve_threads(3), 3u);
  std::vector<std::atomic<int>> hits(64);
  task::parallel_for(0, hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

// More threads than indices: every index still runs exactly once, and
// never on the calling thread, which only waits.
TEST(TaskParallelFor, MoreThreadsThanIndices) {
  std::vector<std::atomic<int>> hits(3);
  std::vector<std::thread::id> ran_on(hits.size());
  task::parallel_for(16, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
    ran_on[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_NE(ran_on[i], std::this_thread::get_id()) << "index " << i;
  }
}

// Several failing indices: the lowest one's exception surfaces, whatever
// order the threads reached them in. Index 3 fails late, so on threads a
// higher index is usually the first to throw.
TEST(TaskParallelFor, RethrowsTheLowestFailingIndex) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    try {
      task::parallel_for(threads, 32, [](std::size_t i) {
        if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (i == 3 || i == 9 || i == 20)
          throw std::runtime_error("index " + std::to_string(i));
      });
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 3") << "threads=" << threads;
    }
  }
}

// After a throw no new index is claimed: one thread stops right at the
// failing index, as the serial loop would.
TEST(TaskParallelFor, StopsClaimingAfterAThrow) {
  std::atomic<int> ran{0};
  EXPECT_THROW(task::parallel_for(1, 100,
                                  [&](std::size_t i) {
                                    ran.fetch_add(1);
                                    if (i == 3) throw std::runtime_error("3");
                                  }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);
}

}  // namespace
}  // namespace acme
