// Placement edge cases for the occupancy-group walk: a lowest group whose
// servers are all ineligible, a gang larger than every server of the fastest
// pool, a pool with every server down, and mixed server sizes under fault
// churn. In Debug builds every placement is also cross-checked against the
// linear scan it replaced (placement_engine.cc).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/harness.h"
#include "sched/gandiva_fair.h"

namespace gfair::sched {
namespace {

using analysis::Experiment;
using analysis::ExperimentConfig;
using cluster::GpuGeneration;

std::string Joined(const std::vector<std::string>& violations) {
  std::string all;
  for (const auto& v : violations) {
    all += v;
    all += "; ";
  }
  return all;
}

TEST(PlacementTest, TooSmallServersInTheLowestGroupAreSkipped) {
  // Server 0: 8 GPUs; server 1: 2 GPUs.
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {GpuGeneration::kV100, 1, 8},
      {GpuGeneration::kV100, 1, 2},
  }};
  Experiment exp(config);
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  // Both servers idle: the tie goes to the lower id, server 0 (1/8).
  const JobId first = exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(4));
  // Server 1 alone is in the lowest group (0) but cannot hold a 4-gang.
  const JobId gang = exp.SubmitAt(Seconds(10), a, "DCGAN", 4, Hours(4));
  exp.Run(Seconds(20));
  EXPECT_EQ(exp.jobs().Get(first).server, ServerId(0));
  EXPECT_EQ(exp.jobs().Get(gang).server, ServerId(0));
  EXPECT_EQ(exp.gandiva()->stride_for(ServerId(1)).num_jobs(), 0u);
}

TEST(PlacementTest, DrainingAndDownServersInTheLowestGroupAreSkipped) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(3, 4);
  Experiment exp(config);
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  const JobId first = exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(4));
  exp.Run(Seconds(5));
  ASSERT_EQ(exp.jobs().Get(first).server, ServerId(0));
  // The empty servers 1 and 2 form the lowest group; take both out.
  exp.gandiva()->DrainServer(ServerId(1));
  exp.exec().FailServer(ServerId(2));
  const JobId second = exp.SubmitAt(Seconds(10), a, "DCGAN", 1, Hours(4));
  exp.Run(Seconds(20));
  EXPECT_EQ(exp.jobs().Get(second).server, ServerId(0));
  EXPECT_EQ(exp.gandiva()->stride_for(ServerId(0)).num_jobs(), 2u);
}

TEST(PlacementTest, GangLargerThanEveryFastServerGoesToASlowerPool) {
  // K80 server 0 holds 8 GPUs; V100 servers 1-2 hold 4.
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {GpuGeneration::kK80, 1, 8},
      {GpuGeneration::kV100, 2, 4},
  }};
  Experiment exp(config);
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  const JobId gang = exp.SubmitAt(kTimeZero, a, "DCGAN", 8, Hours(4));
  const JobId small = exp.SubmitAt(Seconds(10), a, "DCGAN", 4, Hours(4));
  exp.Run(Seconds(20));
  const ServerId gang_home = exp.jobs().Get(gang).server;
  ASSERT_TRUE(gang_home.valid());
  EXPECT_EQ(exp.cluster().server(gang_home).generation(), GpuGeneration::kK80);
  // A gang that fits the fast pool still goes there.
  const ServerId small_home = exp.jobs().Get(small).server;
  ASSERT_TRUE(small_home.valid());
  EXPECT_EQ(exp.cluster().server(small_home).generation(), GpuGeneration::kV100);
}

TEST(PlacementTest, ArrivalWithEveryServerDownParksUntilRecovery) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 4);
  Experiment exp(config);
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  exp.exec().FailServer(ServerId(0));
  exp.exec().FailServer(ServerId(1));
  const JobId job = exp.SubmitAt(Seconds(10), a, "DCGAN", 2, Hours(1));
  exp.Run(Seconds(20));
  EXPECT_EQ(exp.gandiva()->pending_orphan_count(), 1u);
  EXPECT_FALSE(exp.jobs().Get(job).resident());

  exp.exec().RecoverServer(ServerId(1));
  EXPECT_EQ(exp.gandiva()->pending_orphan_count(), 0u);
  EXPECT_EQ(exp.jobs().Get(job).server, ServerId(1));
  exp.Run(Hours(3));
  EXPECT_TRUE(exp.jobs().Get(job).finished());
}

// V100 servers of 8, 4 and 2 GPUs, interleaved in id order, under 1/2/4/8
// gangs, a drain and two failure/recovery cycles. Both indexes must match
// their recounts throughout (the index-recount invariant).
TEST(PlacementTest, MixedServerSizesUnderFaultChurnKeepIndexesExact) {
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {GpuGeneration::kV100, 2, 8},
      {GpuGeneration::kV100, 2, 4},
      {GpuGeneration::kV100, 2, 2},
      {GpuGeneration::kV100, 2, 8},
      {GpuGeneration::kV100, 2, 4},
      {GpuGeneration::kV100, 2, 2},
  }};
  Experiment exp(config);
  const UserId a = exp.users().Create("a", 2.0).id;
  const UserId b = exp.users().Create("b").id;
  exp.UseGandivaFair({});
  const int gangs[] = {1, 2, 4, 1, 8, 2, 1, 4, 2, 1};
  for (int i = 0; i < 60; ++i) {
    exp.SubmitAt(Minutes(2 * i), i % 2 == 0 ? a : b, "DCGAN", gangs[i % 10],
                 Hours(1 + (i % 4)));
  }
  GandivaFairScheduler& g = *exp.gandiva();
  auto run_and_check = [&](SimTime until) {
    exp.Run(until);
    const auto violations = g.CheckInvariants();
    EXPECT_TRUE(violations.empty()) << "at t=" << until << ": " << Joined(violations);
  };
  run_and_check(Minutes(40));
  g.DrainServer(ServerId(2));
  exp.exec().FailServer(ServerId(0));
  run_and_check(Hours(1) + Minutes(10));
  exp.exec().FailServer(ServerId(5));
  run_and_check(Hours(1) + Minutes(50));
  exp.exec().RecoverServer(ServerId(0));
  g.UndrainServer(ServerId(2));
  run_and_check(Hours(2) + Minutes(30));
  exp.exec().RecoverServer(ServerId(5));
  for (SimTime t = Hours(3); t <= Hours(8); t += Hours(1)) {
    run_and_check(t);
  }
  EXPECT_GT(g.orphans_replaced(), 0);
  EXPECT_GE(g.decisions().Count(DecisionType::kPlace), 60);
}

}  // namespace
}  // namespace gfair::sched
