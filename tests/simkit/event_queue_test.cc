#include "simkit/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

namespace gfair::simkit {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(30, [&] { order.push_back(3); });
  queue.Push(10, [&] { order.push_back(1); });
  queue.Push(20, [&] { order.push_back(2); });
  while (!queue.empty()) {
    queue.Pop().callback();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFiresInSchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.Push(42, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) {
    queue.Pop().callback();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NextTimeTracksEarliestLive) {
  EventQueue queue;
  EXPECT_EQ(queue.NextTime(), kTimeNever);
  const TimerId early = queue.CreateTimer([] {});
  queue.ArmTimer(early, 5);
  queue.Push(9, [] {});
  EXPECT_EQ(queue.NextTime(), 5);
  queue.DisarmTimer(early);
  EXPECT_EQ(queue.NextTime(), 9);
}

TEST(EventQueueTest, SizeCountsLiveOnly) {
  EventQueue queue;
  const TimerId a = queue.CreateTimer([] {});
  queue.ArmTimer(a, 1);
  queue.Push(2, [] {});
  EXPECT_EQ(queue.size(), 2u);
  queue.DisarmTimer(a);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueTest, PushSlotsAreReusedAfterFiring) {
  // A one-shot event borrows a slot while it waits and returns it when it
  // fires, releasing its callback's captures. Timer ids are slot indices, so
  // a timer created afterwards counts the slots ever allocated.
  EventQueue queue;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  queue.Push(1, [token = std::move(token)] { ++*token; });
  queue.Pop().callback();
  EXPECT_TRUE(watch.expired());
  for (SimTime t = 2; t < 200; t += 2) {
    queue.Push(t + 1, [] {});
    queue.Push(t, [] {});
    queue.Pop().callback();
    queue.Pop().callback();
  }
  EXPECT_EQ(queue.CreateTimer([] {}), 2u);
}

TEST(EventQueueTimerTest, ArmFireRearm) {
  EventQueue queue;
  int fired = 0;
  const TimerId timer = queue.CreateTimer([&] { ++fired; });
  EXPECT_FALSE(queue.TimerArmed(timer));
  queue.ArmTimer(timer, 10);
  EXPECT_TRUE(queue.TimerArmed(timer));
  auto event = queue.Pop();
  event.callback();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(queue.TimerArmed(timer));  // firing consumed the arm
  queue.ArmTimer(timer, 20);
  queue.Pop().callback();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTimerTest, DisarmCancelsPendingArm) {
  EventQueue queue;
  int fired = 0;
  const TimerId timer = queue.CreateTimer([&] { ++fired; });
  queue.ArmTimer(timer, 10);
  EXPECT_TRUE(queue.DisarmTimer(timer));
  EXPECT_FALSE(queue.DisarmTimer(timer));  // already disarmed
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(fired, 0);
}

// One simulated hour — entries at or beyond this much past the last fired
// event take the far-band path (see EventQueue's file comment).
constexpr SimTime kHourMs = 60 * 60 * 1000;

TEST(EventQueueFarBandTest, FarAndNearEventsPopInGlobalTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  // Interleave near heap entries with far-band entries (≥ 1h out) in
  // shuffled time order; the pop stream must still be globally sorted.
  queue.Push(2 * kHourMs, [&] { order.push_back(4); });
  queue.Push(10, [&] { order.push_back(1); });
  queue.Push(3 * kHourMs, [&] { order.push_back(5); });
  queue.Push(20, [&] { order.push_back(2); });
  queue.Push(kHourMs + 1, [&] { order.push_back(3); });
  while (!queue.empty()) {
    queue.Pop().callback();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueueFarBandTest, NextTimeSeesFarEntriesWhenHeapEmpties) {
  EventQueue queue;
  queue.Push(5 * kHourMs, [] {});
  EXPECT_EQ(queue.NextTime(), 5 * kHourMs);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueFarBandTest, DisarmedFarTimersAreSplicedOutAndRearmable) {
  // The executor's steady-state pattern: many timers armed far ahead, most
  // disarmed before the horizon nears (suspend cancels the completion
  // event), some re-armed at new times. Disarm splices the far entry out via
  // the slot back-pointer; this shuffled disarm order exercises the
  // swap-remove patching.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<TimerId> timers;
  for (int i = 0; i < 16; ++i) {
    timers.push_back(queue.CreateTimer([&fired, i] { fired.push_back(i); }));
    queue.ArmTimer(timers.back(), (2 + i) * kHourMs);
  }
  for (int i : {0, 15, 7, 3, 11, 4, 12, 8}) {
    EXPECT_TRUE(queue.DisarmTimer(timers[static_cast<size_t>(i)]));
  }
  // Re-arm two of the disarmed timers at times that re-sort them.
  queue.ArmTimer(timers[7], 30 * kHourMs);
  queue.ArmTimer(timers[0], kHourMs + 5);
  while (!queue.empty()) {
    queue.Pop().callback();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 5, 6, 9, 10, 13, 14, 7}));
}

TEST(EventQueueFarBandTest, HeavyCancelChurnCompactsWithoutReordering) {
  // Near timer arm/disarm churn beside far pushes that wait in the band.
  // Each round adds 64 heap entries of which one stays live, plus one live
  // far push, so tombstones pass five times the live count every couple of
  // rounds and compaction trips with the far band populated. The surviving
  // timers and the far pushes must still fire in (time, id) order.
  EventQueue queue;
  std::vector<SimTime> fire_times;
  for (int round = 0; round < 40; ++round) {
    const SimTime far = 2 * kHourMs + round * 1000;
    queue.Push(far, [&fire_times, far] { fire_times.push_back(far); });
    for (int i = 0; i < 64; ++i) {
      const SimTime when = (round * 7 % 40) * 1000 + (i * 5 % 64);
      const TimerId timer =
          queue.CreateTimer([&fire_times, when] { fire_times.push_back(when); });
      queue.ArmTimer(timer, when);
      if (i != round % 64) {
        EXPECT_TRUE(queue.DisarmTimer(timer));
      }
    }
  }
  EXPECT_EQ(queue.size(), 40u * 2u);
  while (!queue.empty()) {
    queue.Pop().callback();
  }
  EXPECT_EQ(fire_times.size(), 40u * 2u);
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
}

TEST(EventQueueDeathTest, PopEmptyAborts) {
  EventQueue queue;
  EXPECT_DEATH(queue.Pop(), "empty");
}

}  // namespace
}  // namespace gfair::simkit
