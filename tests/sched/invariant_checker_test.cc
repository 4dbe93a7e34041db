// InvariantChecker: the registered cluster-wide invariants hold throughout
// healthy runs, and each check actually fires when its invariant is broken
// (seeded violations via direct state mutation behind the scheduler's back).
#include "sched/invariant_checker.h"

#include <sstream>
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
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names[0], "gang-residency");
  EXPECT_EQ(names[1], "entitlement-conservation");
  EXPECT_EQ(names[2], "pass-monotonicity");
  EXPECT_EQ(names[3], "delta-ordering");
  EXPECT_EQ(names[4], "down-holds-nothing");
  EXPECT_EQ(names[5], "gpu-time-conservation");
  EXPECT_EQ(names[6], "ticket-derivation");
  EXPECT_EQ(names[7], "index-recount");
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
  ASSERT_TRUE(g.CheckInvariants().empty());
  // The checker fills no cache, so fill every server's here: a cached load
  // is what a missed invalidation leaves stale.
  for (const auto& server : exp.cluster().servers()) {
    (void)g.cluster_index().stride(server.id()).TicketLoad();
  }

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

TEST(InvariantCheckerTest, DetectsLoadOutsideItsCertifiedBounds) {
  Experiment exp = MakeBusyCluster();
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  for (int i = 0; i < 6; ++i) {
    exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(10));
  }
  exp.Run(Minutes(5));
  GandivaFairScheduler& g = *exp.gandiva();
  ASSERT_TRUE(g.CheckInvariants().empty());

  // Tell one hosting server that its rate tripled when it did not: its
  // bounds move off the load its stride still sums.
  const ServerId home = exp.jobs().Get(JobId(0)).server;
  const cluster::GpuGeneration gen = exp.cluster().server(home).generation();
  ClusterStateIndex& index = const_cast<ClusterStateIndex&>(g.cluster_index());
  const TicketRate rate = const_cast<ResidencyIndex&>(g.residency()).PoolRate(a, gen);
  TicketRate tripled = rate;
  tripled.pool_tickets = rate.pool_tickets * 3.0;
  ShareSum shares;
  shares.Add(1.0);
  index.RepriceTicketLoad(home, shares, RateChange(rate, tripled));
  std::ostringstream server;
  server << "server " << home << ")";
  const auto violations = g.CheckInvariants();
  bool named = false;
  for (const std::string& v : violations) {
    named |= v.rfind("ticket-derivation: fresh ticket load outside the index's certified bounds", 0) == 0 &&
             v.find(server.str()) != std::string::npos;
  }
  EXPECT_TRUE(named) << Joined(violations);

  // Moving the bounds back by the inverse change restores them.
  index.RepriceTicketLoad(home, shares, RateChange(tripled, rate));
  EXPECT_TRUE(g.CheckInvariants().empty());
}

TEST(InvariantCheckerTest, DetectsServerOutsideItsOccupancyGroup) {
  Experiment exp = MakeBusyCluster();
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  for (int i = 0; i < 3; ++i) {
    exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(10));
  }
  exp.Run(Minutes(5));
  GandivaFairScheduler& g = *exp.gandiva();
  ASSERT_TRUE(g.CheckInvariants().empty());

  // Add job 0's stride entry to another server through the raw stride,
  // bypassing the index: that server's demand changes but it stays in its
  // old occupancy group.
  ClusterStateIndex& index = const_cast<ClusterStateIndex&>(g.cluster_index());
  const JobId phantom(0);
  ServerId server = ServerId::Invalid();
  for (const auto& candidate : exp.cluster().servers()) {
    if (candidate.id() != exp.jobs().Get(phantom).server) {
      server = candidate.id();
      break;
    }
  }
  ASSERT_TRUE(server.valid());
  index.stride(server).AddJob(phantom, 1, Tickets(1.0));
  const auto violations = g.CheckInvariants();
  EXPECT_TRUE(AnyStartsWith(violations,
                            "index-recount: server outside the group of its occupancy"))
      << Joined(violations);

  index.stride(server).RemoveJob(phantom);  // restore
  EXPECT_TRUE(g.CheckInvariants().empty());
}

TEST(InvariantCheckerTest, DetectsHostingSetDrift) {
  Experiment exp = MakeBusyCluster();
  const UserId a = exp.users().Create("a").id;
  exp.UseGandivaFair({});
  for (int i = 0; i < 3; ++i) {
    exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(10));
  }
  exp.Run(Minutes(5));
  GandivaFairScheduler& g = *exp.gandiva();
  ASSERT_TRUE(g.CheckInvariants().empty());

  // Re-attach job 0 to the hosting set of another server of its pool
  // behind the scheduler's back: its home and the set now disagree.
  ResidencyIndex& residency = const_cast<ResidencyIndex&>(g.residency());
  const JobId job(0);
  const ServerId home = exp.jobs().Get(job).server;
  const cluster::GpuGeneration gen = exp.cluster().server(home).generation();
  ServerId other = ServerId::Invalid();
  for (ServerId sid : exp.cluster().servers_of(gen)) {
    if (sid != home) {
      other = sid;
      break;
    }
  }
  ASSERT_TRUE(other.valid());
  residency.Detach(a, gen, job, home);
  residency.Attach(a, gen, job, other);
  const auto violations = g.CheckInvariants();
  EXPECT_TRUE(AnyStartsWith(violations,
                            "index-recount: hosting set differs from the pool jobs' homes"))
      << Joined(violations);

  residency.Detach(a, gen, job, other);  // restore
  residency.Attach(a, gen, job, home);
  EXPECT_TRUE(g.CheckInvariants().empty());
}

// One 1-GPU server shared by two users' jobs dies and comes back between
// two sparse checks; both orphans are re-placed onto it at the virtual
// time, below job 0's pass at the first check. Returns the second check's
// violations. `forget_orphaning` rolls job 0's orphan count back first, so
// the re-floor reads as one residency's pass moving backwards.
std::vector<std::string> OrphanRoundTrip(bool forget_orphaning) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 1);
  Experiment exp(config);
  const UserId a = exp.users().Create("a").id;
  const UserId b = exp.users().Create("b", 2.0).id;
  exp.UseGandivaFair({});
  exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(10));
  exp.SubmitAt(Minutes(1), b, "DCGAN", 1, Hours(10));
  exp.Run(Seconds(90));
  GandivaFairScheduler& g = *exp.gandiva();
  EXPECT_TRUE(g.CheckInvariants().empty());

  workload::Job& job = exp.jobs().Get(JobId(0));
  const ServerId server = job.server;
  const Pass before = g.stride_for(server).PassOf(job.id);
  exp.exec().FailServer(server);
  exp.exec().RecoverServer(server);  // re-places both orphans onto it
  EXPECT_EQ(job.server, server);
  EXPECT_EQ(job.num_orphanings, 1);
  EXPECT_LT(g.stride_for(server).PassOf(job.id), before);
  if (forget_orphaning) {
    job.num_orphanings = 0;
  }
  return g.CheckInvariants();
}

TEST(InvariantCheckerTest, OrphanReplacedOnItsOldServerIsANewResidency) {
  const auto violations = OrphanRoundTrip(/*forget_orphaning=*/false);
  EXPECT_FALSE(AnyStartsWith(violations, "pass-monotonicity:")) << Joined(violations);
}

TEST(InvariantCheckerTest, DetectsPassMovingBackwardsWithinAResidency) {
  const auto violations = OrphanRoundTrip(/*forget_orphaning=*/true);
  EXPECT_TRUE(AnyStartsWith(violations, "pass-monotonicity: stride pass moved backwards"))
      << Joined(violations);
}

}  // namespace
}  // namespace gfair::sched
