#include "simkit/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace gfair::simkit {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime observed = -1;
  sim.At(100, [&] { observed = sim.Now(); });
  sim.Run();
  EXPECT_EQ(observed, 100);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, AfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.At(50, [&] {
    sim.After(25, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{75}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { ++fired; });
  sim.At(1000, [&] { ++fired; });
  sim.RunUntil(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 500);  // clock parks at the deadline
  sim.RunUntil(2000);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) {
      sim.After(1, recurse);
    }
  };
  sim.At(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 9);
}

TEST(SimulatorTest, EveryFiresPeriodically) {
  Simulator sim;
  std::vector<SimTime> fires;
  sim.Every(10, [&] { fires.push_back(sim.Now()); });
  sim.RunUntil(35);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30}));
}

TEST(SimulatorTest, EveryReArmsAfterItsCallback) {
  // The next firing is scheduled once the callback has returned, so an
  // event the callback schedules for the next firing's instant was
  // scheduled first and fires first.
  Simulator sim;
  std::vector<std::pair<char, SimTime>> fires;
  sim.Every(10, [&] {
    fires.emplace_back('e', sim.Now());
    sim.After(10, [&] { fires.emplace_back('a', sim.Now()); });
  });
  sim.RunUntil(25);
  EXPECT_EQ(fires, (std::vector<std::pair<char, SimTime>>{{'e', 10}, {'a', 20}, {'e', 20}}));
}

TEST(SimulatorTest, DestroyingSimulatorReleasesRepeatingChains) {
  // The chain's callback captures a token. Once the simulator is gone,
  // nothing may still hold it: a chain that owned itself would leak its
  // callback and every capture.
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  {
    Simulator sim;
    sim.Every(10, [token = std::move(token)] { ++*token; });
    sim.RunUntil(25);
    ASSERT_FALSE(watch.expired());
    EXPECT_EQ(*watch.lock(), 2);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.At(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.At(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  // A further run resumes where we stopped.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.At(i, [] {});
  }
  EXPECT_EQ(sim.Run(), 7u);
  EXPECT_EQ(sim.total_events_processed(), 7u);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.At(10, [] {});
  sim.Run();
  EXPECT_DEATH(sim.At(5, [] {}), "past");
}

}  // namespace
}  // namespace gfair::simkit
