// Unit coverage for the allocation-free replay hot path's building blocks:
// InlineFn capture-size edges, intrusive IndexList mutation-during-iteration,
// IndexBitSet word-boundary iteration, and Engine reset/reserve semantics
// (the basis for Monte Carlo scratch reuse).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/index_bitset.h"
#include "common/index_list.h"
#include "common/inline_fn.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/engine.h"

namespace acme {
namespace {

// --- InlineFn -------------------------------------------------------------

using Fn40 = common::InlineFn<40>;

struct Exactly40 {
  char bytes[40];
  void operator()() {}
};
struct OneOver {
  char bytes[41];
  void operator()() {}
};
struct OverAligned {
  alignas(32) char bytes[8];
  void operator()() {}
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() {}
};

// The budget is enforced at compile time: exactly-at-capacity fits, one byte
// over (or an alignment/move contract violation) does not.
static_assert(Fn40::fits<Exactly40>());
static_assert(!Fn40::fits<OneOver>());
static_assert(!Fn40::fits<OverAligned>());
static_assert(!Fn40::fits<ThrowingMove>());

TEST(InlineFn, EmptyStatesAreFalsy) {
  Fn40 a;
  Fn40 b(nullptr);
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  Fn40 c = [] {};
  EXPECT_TRUE(c);
  c = nullptr;
  EXPECT_FALSE(c);
}

TEST(InlineFn, CaptureAtExactCapacityInvokes) {
  struct Pad {
    char pad[32];
  };
  Pad pad{};
  pad.pad[0] = 7;
  int hits = 0;
  int* counter = &hits;
  // 32-byte pad + 8-byte pointer = the full 40-byte budget.
  auto lambda = [pad, counter] { *counter += pad.pad[0]; };
  static_assert(sizeof(lambda) == 40);
  static_assert(Fn40::fits<decltype(lambda)>());
  Fn40 fn = std::move(lambda);
  fn();
  fn();
  EXPECT_EQ(hits, 14);
}

TEST(InlineFn, MoveTransfersTrivialCapture) {
  int hits = 0;
  int* counter = &hits;
  Fn40 a = [counter] { ++*counter; };
  Fn40 b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  b();
  Fn40 c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, NonTrivialCaptureDestroyedOnResetMoveAndReplace) {
  auto token = std::make_shared<int>(42);
  EXPECT_EQ(token.use_count(), 1);
  {
    Fn40 a = [token] { (void)*token; };
    EXPECT_EQ(token.use_count(), 2);
    Fn40 b = std::move(a);  // real move manager runs: count stays 2
    EXPECT_EQ(token.use_count(), 2);
    b.reset();
    EXPECT_EQ(token.use_count(), 1);
    b = [token] { (void)*token; };
    EXPECT_EQ(token.use_count(), 2);
    b.emplace([] {});  // replacing the occupant destroys it
    EXPECT_EQ(token.use_count(), 1);
    b = [token] { (void)*token; };
  }  // destructor releases the last copy
  EXPECT_EQ(token.use_count(), 1);
}

// --- IndexList ------------------------------------------------------------

TEST(IndexList, FifoOrderAndO1Erase) {
  common::IndexLinks links;
  links.assign(8);
  common::IndexList list;
  for (std::uint32_t i : {3u, 1u, 4u, 5u, 2u}) list.push_back(links, i);
  EXPECT_EQ(list.size(), 5u);
  list.erase(links, 4);  // middle
  list.erase(links, 3);  // head
  list.erase(links, 2);  // tail
  std::vector<std::uint32_t> out;
  list.copy_to(links, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 5}));
  EXPECT_EQ(list.pop_front(links), 1u);
  EXPECT_EQ(list.pop_front(links), 5u);
  EXPECT_TRUE(list.empty());
}

TEST(IndexList, UnlinkCurrentDuringIteration) {
  common::IndexLinks links;
  links.assign(6);
  common::IndexList list;
  for (std::uint32_t i = 0; i < 6; ++i) list.push_back(links, i);
  // The scheduler's scan pattern: capture the successor before erasing.
  std::vector<std::uint32_t> visited;
  for (std::uint32_t i = list.front(); i != common::kIndexNpos;) {
    const std::uint32_t nxt = common::IndexList::next_of(links, i);
    visited.push_back(i);
    if (i % 2 == 0) list.erase(links, i);  // evict every even element
    i = nxt;
  }
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  std::vector<std::uint32_t> out;
  list.copy_to(links, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 3, 5}));
}

TEST(IndexList, TailAppendDuringIterationIsVisited) {
  // try_start may evict victims that re-enter the queue at the tail while
  // try_dispatch is mid-scan; the captured successor must reach them.
  common::IndexLinks links;
  links.assign(4);
  common::IndexList list;
  list.push_back(links, 0);
  list.push_back(links, 1);
  std::vector<std::uint32_t> visited;
  bool appended = false;
  for (std::uint32_t i = list.front(); i != common::kIndexNpos;) {
    visited.push_back(i);
    if (!appended) {
      list.push_back(links, 3);  // victim re-enters at the tail mid-scan
      appended = true;
    }
    // Successor read after the append, so the new tail is already threaded.
    i = common::IndexList::next_of(links, i);
  }
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST(IndexList, ClearRethreadsArenaForReuse) {
  common::IndexLinks links;
  links.assign(3);
  common::IndexList list;
  for (std::uint32_t i = 0; i < 3; ++i) list.push_back(links, i);
  list.clear(links);
  EXPECT_TRUE(list.empty());
  // Every link must be unthreaded so reinsertion starts clean.
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(links.prev[i], common::kIndexNpos);
    EXPECT_EQ(links.next[i], common::kIndexNpos);
  }
  list.push_back(links, 2);
  list.push_back(links, 0);
  std::vector<std::uint32_t> out;
  list.copy_to(links, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2, 0}));
}

// --- IndexBitSet ----------------------------------------------------------

TEST(IndexBitSet, IdempotentCountAndWordBoundaryIteration) {
  common::IndexBitSet set(200);
  for (std::size_t i : {0u, 63u, 64u, 127u, 128u, 199u}) set.insert(i);
  set.insert(63);  // duplicate: count must stay exact
  EXPECT_EQ(set.size(), 6u);
  set.erase(42);  // non-member: no-op
  EXPECT_EQ(set.size(), 6u);
  std::vector<int> out;
  set.append_to(out);
  EXPECT_EQ(out, (std::vector<int>{0, 63, 64, 127, 128, 199}));
  EXPECT_EQ(set.first(), 0u);
  EXPECT_EQ(set.next(63), 64u);
  EXPECT_EQ(set.next(128), 199u);
  EXPECT_EQ(set.next(199), common::IndexBitSet::npos);
  set.erase(0);
  set.erase(63);
  EXPECT_EQ(set.first(), 64u);
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.first(), common::IndexBitSet::npos);
}

// --- Engine reset / reserve ----------------------------------------------

// Runs a deterministic schedule mix (out-of-order pushes, schedule-during-
// fire, a mid-flight cancel) and records the exact fire order and times.
std::vector<std::pair<double, int>> run_pattern(sim::Engine& eng) {
  std::vector<std::pair<double, int>> fired;
  sim::EventHandle doomed;
  for (int i = 0; i < 12; ++i) {
    const double t = static_cast<double>((i * 7) % 12);  // permuted times
    auto h = eng.schedule_at(t, [&fired, &eng, i] {
      fired.emplace_back(eng.now(), i);
      if (i % 3 == 0) {
        eng.schedule_after(0.5, [&fired, &eng, i] {
          fired.emplace_back(eng.now(), 100 + i);
        });
      }
    });
    if (i == 5) doomed = h;
  }
  EXPECT_TRUE(eng.cancel(doomed));
  eng.run();
  return fired;
}

TEST(EngineReset, ReusedEngineIsBitIdenticalToFresh) {
  sim::Engine fresh;
  const auto want = run_pattern(fresh);
  ASSERT_EQ(want.size(), 15u);  // 12 - 1 cancelled + 4 chained

  sim::Engine reused;
  ASSERT_EQ(run_pattern(reused), want);
  reused.reset();
  EXPECT_DOUBLE_EQ(reused.now(), 0.0);
  EXPECT_EQ(reused.pending(), 0u);
  EXPECT_EQ(reused.events_fired(), 0u);
  // Same schedule on the recycled storage: identical times AND order.
  EXPECT_EQ(run_pattern(reused), want);
}

TEST(EngineReset, DropsPendingEvents) {
  sim::Engine eng;
  int hits = 0;
  eng.schedule_at(1.0, [&hits] { ++hits; });
  eng.schedule_at(2.0, [&hits] { ++hits; });
  eng.reset();
  EXPECT_EQ(eng.pending(), 0u);
  eng.run();
  EXPECT_EQ(hits, 0);
}

TEST(EngineReserve, DoesNotChangeBehavior) {
  sim::Engine plain;
  sim::Engine reserved;
  reserved.reserve(64);
  EXPECT_EQ(run_pattern(reserved), run_pattern(plain));
}

// --- Streaming-accumulator state round-trips (snapshot support) ---
//
// An accumulator whose state is exported mid-stream and re-imported into a
// fresh instance must finish a long tail of additions bit-identically to the
// uninterrupted one; otherwise a restored world's latency quantiles drift.

TEST(SnapshotState, WelfordRoundTripContinuesBitIdentically) {
  common::Rng rng(77);
  common::StreamingStats straight;
  for (int i = 0; i < 500; ++i) straight.add(rng.uniform() * 100.0);
  common::StreamingStats resumed;
  resumed.set_state(straight.state());
  common::Rng tail_a = rng;
  common::Rng tail_b = rng;
  for (int i = 0; i < 500; ++i) straight.add(tail_a.uniform() * 100.0);
  for (int i = 0; i < 500; ++i) resumed.add(tail_b.uniform() * 100.0);
  EXPECT_EQ(straight.count(), resumed.count());
  EXPECT_EQ(straight.mean(), resumed.mean());      // bitwise, not approx
  EXPECT_EQ(straight.stddev(), resumed.stddev());
  EXPECT_EQ(straight.min(), resumed.min());
  EXPECT_EQ(straight.max(), resumed.max());
  EXPECT_EQ(straight.sum(), resumed.sum());
}

TEST(SnapshotState, LatencyHistogramRoundTripContinuesBitIdentically) {
  common::Rng rng(78);
  common::LatencyHistogram straight;
  for (int i = 0; i < 400; ++i) straight.add(rng.exponential(1.0));
  const std::size_t first = straight.first_nonzero();
  const std::vector<std::uint64_t> span(
      straight.buckets().begin() + static_cast<std::ptrdiff_t>(first),
      straight.buckets().begin() +
          static_cast<std::ptrdiff_t>(straight.end_nonzero()));
  common::LatencyHistogram resumed;
  resumed.set_state(straight.count(), straight.sum(), first, span);
  common::Rng tail_a = rng;
  common::Rng tail_b = rng;
  for (int i = 0; i < 400; ++i) straight.add(tail_a.exponential(1.0));
  for (int i = 0; i < 400; ++i) resumed.add(tail_b.exponential(1.0));
  EXPECT_EQ(straight.buckets(), resumed.buckets());
  EXPECT_EQ(straight.sum(), resumed.sum());  // bitwise
  EXPECT_EQ(straight.quantile(0.99), resumed.quantile(0.99));
}

TEST(SnapshotState, LatencyHistogramRejectsInconsistentState) {
  common::LatencyHistogram h;
  // Counts that do not sum to the count, and a span past the last bucket.
  EXPECT_THROW(h.set_state(3, 1.0, 10, {1, 1}), common::CheckError);
  EXPECT_THROW(h.set_state(2, 1.0, common::LatencyHistogram::kBuckets - 1,
                           {1, 1}),
               common::CheckError);
  EXPECT_THROW(h.set_state(1, -1.0, 10, {1}), common::CheckError);
}

TEST(EngineQueue, OutOfOrderAndTiedTimesFireInSeqOrder) {
  // Exercise both levels of the two-level queue: an ascending run, then
  // out-of-order pushes (heap path), with a time tie broken by insertion seq.
  sim::Engine eng;
  std::vector<int> order;
  eng.schedule_at(1.0, [&order] { order.push_back(1); });
  eng.schedule_at(5.0, [&order] { order.push_back(2); });  // sorted run
  eng.schedule_at(3.0, [&order] { order.push_back(3); });  // heap
  eng.schedule_at(3.0, [&order] { order.push_back(4); });  // tie: after 3
  eng.schedule_at(0.5, [&order] { order.push_back(5); });  // heap, new min
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{5, 1, 3, 4, 2}));
  EXPECT_EQ(eng.events_fired(), 5u);
}

}  // namespace
}  // namespace acme
