#include "sim/engine.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace acme::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule_at(5.0, [&, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, NowAdvancesToEventTime) {
  Engine e;
  double seen = -1;
  e.schedule_at(7.5, [&] { seen = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(e.now(), 7.5);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  double seen = -1;
  e.schedule_at(10.0, [&] {
    e.schedule_after(5.0, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 15.0);
}

TEST(Engine, RejectsPastAndNegative) {
  Engine e;
  e.schedule_at(10.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5.0, [] {}), common::CheckError);
  EXPECT_THROW(e.schedule_after(-1.0, [] {}), common::CheckError);
  EXPECT_THROW(e.schedule_at(20.0, nullptr), common::CheckError);
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  bool fired = false;
  auto handle = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(handle));
  EXPECT_FALSE(e.cancel(handle));  // idempotent
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelDefaultHandleIsNoop) {
  Engine e;
  EXPECT_FALSE(e.cancel(EventHandle{}));
}

TEST(Engine, RunUntilStopsAtHorizonInclusive) {
  Engine e;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) e.schedule_at(t, [&, t] { fired.push_back(t); });
  EXPECT_EQ(e.run_until(2.0), 2u);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_EQ(e.run(), 2u);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  EXPECT_EQ(e.run_until(100.0), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 100.0);
}

TEST(Engine, ReentrantSchedulingChains) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) e.schedule_after(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(e.now(), 99.0);
}

TEST(Engine, PendingCountExcludesCancelled) {
  Engine e;
  auto h1 = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(h1);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, EventsFiredCounter) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_fired(), 5u);
}

// Property: any random schedule fires in non-decreasing time order, and
// cancelled events never fire.
class EngineStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineStress, RandomScheduleOrderedAndCancelRespected) {
  Engine e;
  common::Rng rng(GetParam());
  std::vector<double> fire_times;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform(0, 1000);
    handles.push_back(e.schedule_at(t, [&e, &fire_times] {
      fire_times.push_back(e.now());
    }));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); ++i)
    if (rng.bernoulli(0.33) && e.cancel(handles[i])) ++cancelled;
  const std::size_t fired = e.run();
  EXPECT_EQ(fired, 2000u - cancelled);
  for (std::size_t i = 1; i < fire_times.size(); ++i)
    EXPECT_LE(fire_times[i - 1], fire_times[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineStress, ::testing::Values(1, 2, 3, 4));


TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  auto handle = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(handle));
}

TEST(Engine, EventAtExactHorizonFires) {
  Engine e;
  bool fired = false;
  e.schedule_at(10.0, [&] { fired = true; });
  e.run_until(10.0);
  EXPECT_TRUE(fired);
}

// Edge cases relied on by the MC worker pool wiring: cancelling handles that
// already fired via step(), step() exactly at the horizon, and re-entrant
// scheduling while run_until drains a bounded window.

TEST(Engine, StepAtExactHorizonFires) {
  Engine e;
  bool fired = false;
  e.schedule_at(5.0, [&] { fired = true; });
  EXPECT_TRUE(e.step(5.0));  // horizon == event time is inclusive
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, StepBeyondHorizonLeavesEventPending) {
  Engine e;
  bool fired = false;
  e.schedule_at(5.0, [&] { fired = true; });
  EXPECT_FALSE(e.step(4.999999));
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);  // step never advances past the horizon
}

TEST(Engine, CancelHandleFiredByStepReturnsFalse) {
  Engine e;
  auto h = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.step(1.0));
  EXPECT_FALSE(e.cancel(h));      // already fired
  EXPECT_FALSE(e.cancel(h));      // still false, no phantom pending entries
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelledThenFiredSequenceStaysConsistent) {
  Engine e;
  auto victim = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_TRUE(e.cancel(victim));
  EXPECT_EQ(e.run(), 1u);
  EXPECT_FALSE(e.cancel(victim));  // cancelled entry already reaped
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, ReentrantSchedulingDuringRunUntil) {
  Engine e;
  std::vector<double> fired;
  e.schedule_at(1.0, [&] {
    fired.push_back(e.now());
    // Both inside and beyond the active horizon.
    e.schedule_after(0.5, [&] { fired.push_back(e.now()); });
    e.schedule_after(9.0, [&] { fired.push_back(e.now()); });
  });
  EXPECT_EQ(e.run_until(2.0), 2u);  // t=1 and the re-entrant t=1.5
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_EQ(e.pending(), 1u);       // t=10 still queued
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(fired.back(), 10.0);
}

TEST(Engine, ReentrantScheduleAtCurrentTimeFiresInSameRun) {
  Engine e;
  int fired = 0;
  e.schedule_at(3.0, [&] {
    ++fired;
    e.schedule_at(3.0, [&] { ++fired; });  // zero-delay re-entrant event
  });
  EXPECT_EQ(e.run_until(3.0), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, CancelFromInsideAnEvent) {
  Engine e;
  bool victim_fired = false;
  auto victim = e.schedule_at(2.0, [&] { victim_fired = true; });
  e.schedule_at(1.0, [&] { EXPECT_TRUE(e.cancel(victim)); });
  e.run();
  EXPECT_FALSE(victim_fired);
}

TEST(Engine, DoubleCancelSecondCallFails) {
  Engine e;
  bool fired = false;
  auto h = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(h));
  EXPECT_FALSE(e.cancel(h));  // slot already retired, generation moved on
  EXPECT_FALSE(e.cancel(h));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, StaleHandleCannotCancelRecycledSlot) {
  Engine e;
  auto first = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(first));
  // The freed slot is recycled for the next event with a bumped generation;
  // the stale handle must not be able to touch the new occupant.
  bool fired = false;
  auto second = e.schedule_at(2.0, [&] { fired = true; });
  EXPECT_FALSE(e.cancel(first));
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(e.cancel(second));
}

TEST(Engine, HandleInvalidationAcrossManyRecycles) {
  Engine e;
  auto stale = e.schedule_at(1.0, [] {});
  ASSERT_TRUE(e.cancel(stale));
  // Drive the slot through many schedule/fire cycles: the stale handle stays
  // dead no matter how often its slot is reused.
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    e.schedule_at(static_cast<double>(i + 1), [&] { ++fired; });
    e.run();
    EXPECT_FALSE(e.cancel(stale));
  }
  EXPECT_EQ(fired, 100);
}

TEST(Engine, PendingStaysExactUnderMassCancellation) {
  Engine e;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i)
    handles.push_back(e.schedule_at(static_cast<double>(i), [] {}));
  EXPECT_EQ(e.pending(), 1000u);
  // Cancel every other event; the cancelled heap entries linger internally
  // but pending() must count live events only.
  for (std::size_t i = 0; i < handles.size(); i += 2)
    EXPECT_TRUE(e.cancel(handles[i]));
  EXPECT_EQ(e.pending(), 500u);
  std::size_t fired = e.run();
  EXPECT_EQ(fired, 500u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, ReentrantScheduleDuringStepIsCancellable) {
  Engine e;
  bool inner_fired = false;
  EventHandle inner;
  e.schedule_at(1.0, [&] {
    inner = e.schedule_after(1.0, [&] { inner_fired = true; });
  });
  EXPECT_TRUE(e.step(10.0));  // fires the outer event, arming the inner one
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_TRUE(e.cancel(inner));
  e.run();
  EXPECT_FALSE(inner_fired);
}

// --- Lane events: slotless post(payload) dispatched to one handler ---

TEST(EngineLane, SameTimeLaneAndSlotFireInSeqOrderBothWaysRound) {
  // Lane first, then slot.
  {
    Engine e;
    std::vector<int> order;
    e.set_post_handler([&](std::uint32_t p) { order.push_back(static_cast<int>(p)); });
    e.post(5.0, 1);
    e.schedule_at(5.0, [&] { order.push_back(-1); });
    e.post(5.0, 2);
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, -1, 2}));
  }
  // Slot first, then lane.
  {
    Engine e;
    std::vector<int> order;
    e.set_post_handler([&](std::uint32_t p) { order.push_back(static_cast<int>(p)); });
    e.schedule_at(5.0, [&] { order.push_back(-1); });
    e.post(5.0, 7);
    e.schedule_at(5.0, [&] { order.push_back(-2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 7, -2}));
  }
}

TEST(EngineLane, InterleavesWithSlotEventsByTime) {
  Engine e;
  std::vector<std::pair<double, int>> fired;
  e.set_post_handler([&](std::uint32_t p) {
    fired.emplace_back(e.now(), static_cast<int>(p));
    // A handler may schedule slot events of its own.
    if (p == 0) e.schedule_after(0.5, [&] { fired.emplace_back(e.now(), -1); });
  });
  for (std::uint32_t i = 0; i < 4; ++i) e.post(static_cast<double>(i), i);
  e.schedule_at(2.25, [&] { fired.emplace_back(e.now(), -2); });
  EXPECT_EQ(e.run(), 6u);
  const std::vector<std::pair<double, int>> want = {
      {0.0, 0}, {0.5, -1}, {1.0, 1}, {2.0, 2}, {2.25, -2}, {3.0, 3}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(e.events_fired(), 6u);
}

TEST(EngineLane, PendingCountsLaneEvents) {
  Engine e;
  int hits = 0;
  e.set_post_handler([&](std::uint32_t) { ++hits; });
  e.post(1.0, 0);
  e.post(2.0, 1);
  e.schedule_at(1.5, [] {});
  EXPECT_EQ(e.pending(), 3u);
  EXPECT_TRUE(e.step(1.0));
  EXPECT_EQ(e.pending(), 2u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(hits, 2);
}

TEST(EngineLane, ResetDropsLaneEvents) {
  Engine e;
  int hits = 0;
  e.set_post_handler([&](std::uint32_t) { ++hits; });
  e.post(1.0, 0);
  e.post(2.0, 1);
  e.reset();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.run(), 0u);
  EXPECT_EQ(hits, 0);
}

TEST(EngineLane, RejectsPastTimesAndTaggedPayloads) {
  Engine e;
  e.set_post_handler([](std::uint32_t) {});
  e.post(2.0, 0);
  e.run();
  EXPECT_THROW(e.post(1.0, 0), common::CheckError);
  EXPECT_THROW(e.post(3.0, 0x80000000u), common::CheckError);
}

TEST(Engine, SlotsAreRecycledNotLeaked) {
  // Schedule/fire far more events than live at once: the slot vector stays
  // small because retirements feed the free list.
  Engine e;
  std::function<void()> chain;
  int remaining = 10000;
  chain = [&] {
    if (--remaining > 0) e.schedule_after(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(e.pending(), 0u);
}

}  // namespace
}  // namespace acme::sim
