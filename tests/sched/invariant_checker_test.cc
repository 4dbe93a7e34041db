// InvariantChecker: the registered cluster-wide invariants hold throughout
// healthy runs, and each check actually fires when its invariant is broken
// (seeded violations via direct state mutation behind the scheduler's back).
#include "sched/invariant_checker.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/harness.h"
#include "sched/gandiva_fair.h"

namespace gfair::sched {
namespace {

using analysis::Experiment;
using analysis::ExperimentConfig;

std::string Joined(const std::vector<std::string>& violations) {
  std::string all;
  for (const auto& v : violations) {
    all += v;
    all += "; ";
  }
  return all;
}

bool AnyStartsWith(const std::vector<std::string>& violations,
                   const std::string& prefix) {
  for (const auto& v : violations) {
    if (v.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

Experiment MakeBusyCluster() {
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {cluster::GpuGeneration::kP40, 2, 4},
      {cluster::GpuGeneration::kV100, 2, 4},
  }};
  return Experiment(config);
}

TEST(InvariantCheckerTest, RegistryListsAllInvariants) {
  const std::vector<std::string> names = InvariantChecker::RegisteredNames();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "gang-residency");
  EXPECT_EQ(names[1], "entitlement-conservation");
  EXPECT_EQ(names[2], "pass-monotonicity");
  EXPECT_EQ(names[3], "delta-ordering");
  EXPECT_EQ(names[4], "down-holds-nothing");
  EXPECT_EQ(names[5], "gpu-time-conservation");
  EXPECT_EQ(names[6], "ticket-derivation");
}

TEST(InvariantCheckerTest, CleanThroughoutOversubscribedRun) {
  Experiment exp = MakeBusyCluster();
  const UserId a = exp.users().Create("a", 1.0).id;
  const UserId b = exp.users().Create("b", 3.0).id;
  exp.UseGandivaFair({});
  for (int i = 0; i < 6; ++i) {
    exp.SubmitAt(Minutes(i * 7), i % 2 == 0 ? a : b, "DCGAN",
                 i % 3 == 0 ? 2 : 1, Minutes(60));
  }
  // Sweep at several points mid-run, not just the end: the checker must be
  // clean at every quantum boundary (the Debug post-quantum hook relies on
  // this holding continuously).
  for (SimTime t = Minutes(15); t <= Hours(3); t += Minutes(15)) {
    exp.Run(t);
    const auto violations = exp.gandiva()->CheckInvariants();
    EXPECT_TRUE(violations.empty()) << "at t=" << t << ": " << Joined(violations);
  }
}

TEST(InvariantCheckerTest, DetectsForeignGpuOccupancy) {
  Experiment exp = MakeBusyCluster();
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(10));
  exp.Run(Minutes(5));
  ASSERT_TRUE(exp.gandiva()->CheckInvariants().empty());

  // Seed a violation behind the scheduler's back: claim GPUs on an idle
  // server for a job the scheduler never placed there.
  const JobId phantom = exp.jobs().Get(JobId(0)).id;
  cluster::Server* idle = nullptr;
  for (auto& server : exp.cluster().servers()) {
    if (server.num_busy() == 0) {
      idle = &server;
      break;
    }
  }
  ASSERT_NE(idle, nullptr);
  idle->Allocate(phantom, 1);

  const auto violations = exp.gandiva()->CheckInvariants();
  EXPECT_TRUE(AnyStartsWith(violations, "gang-residency:")) << Joined(violations);

  idle->Release(phantom);  // restore so teardown stays consistent
}

TEST(InvariantCheckerTest, DetectsDownServerHoldingState) {
  Experiment exp = MakeBusyCluster();
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  for (int i = 0; i < 8; ++i) {
    exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(10));
  }
  exp.Run(Minutes(5));
  ASSERT_TRUE(exp.gandiva()->CheckInvariants().empty());

  // Flip a busy server down WITHOUT the executor's evacuation mechanics:
  // both the occupancy and the residency invariants must fire.
  cluster::Server* busy = nullptr;
  for (auto& server : exp.cluster().servers()) {
    if (server.num_busy() > 0) {
      busy = &server;
      break;
    }
  }
  ASSERT_NE(busy, nullptr);
  exp.cluster().SetServerUp(busy->id(), false);

  const auto violations = exp.gandiva()->CheckInvariants();
  EXPECT_TRUE(AnyStartsWith(violations, "down-holds-nothing:"))
      << Joined(violations);

  exp.cluster().SetServerUp(busy->id(), true);
}

TEST(InvariantCheckerTest, DetectsStaleTicketsAndMissedInvalidation) {
  Experiment exp = MakeBusyCluster();
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  for (int i = 0; i < 6; ++i) {
    exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(10));
  }
  exp.Run(Minutes(5));
  GandivaFairScheduler& g = *exp.gandiva();
  ASSERT_TRUE(g.CheckInvariants().empty());  // also leaves every load cached

  // Re-price the user's pool behind the scheduler's back: the rate moves but
  // no hosting server is told, so residents disagree with the per-job split
  // and every hosting server's cached load is stale.
  const JobId job = JobId(0);
  const ServerId home = exp.jobs().Get(job).server;
  const cluster::GpuGeneration gen = exp.cluster().server(home).generation();
  ResidencyIndex& residency = const_cast<ResidencyIndex&>(g.residency());
  TicketRate& rate = residency.PoolRate(a, gen);
  const TicketRate saved = rate;
  rate.pool_tickets = rate.pool_tickets * 3.0;
  const auto violations = g.CheckInvariants();
  EXPECT_TRUE(AnyStartsWith(violations,
                            "ticket-derivation: resident tickets differ from the per-job split"))
      << Joined(violations);
  EXPECT_TRUE(AnyStartsWith(violations,
                            "ticket-derivation: cached ticket load differs from a fresh sum"))
      << Joined(violations);

  rate = saved;  // restore so teardown stays consistent
  EXPECT_TRUE(g.CheckInvariants().empty());
}

}  // namespace
}  // namespace gfair::sched
