// Tests for the facade's supporting mechanisms: gang-proportional ticket
// splitting, work stealing, trading probes, and trade-epoch plumbing.
#include <gtest/gtest.h>

#include "analysis/harness.h"
#include "sched/gandiva_fair.h"
#include "sched/policy/greedy_trade_policy.h"

namespace gfair::sched {
namespace {

using analysis::Experiment;
using analysis::ExperimentConfig;
using cluster::GpuGeneration;

TEST(TicketSplitTest, GangProportionalWithinUser) {
  // One user, one 4-gang + four 1-GPU jobs on the same server: per-job
  // tickets must be proportional to gang size (4:1), summing to the user's
  // pool tickets.
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a", 1.0);
  exp.UseGandivaFair({});
  const JobId gang = exp.SubmitAt(kTimeZero, a.id, "ResNet-50", 4, Hours(100));
  JobId single = JobId::Invalid();
  for (int i = 0; i < 4; ++i) {
    single = exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(100));
  }
  exp.Run(Minutes(2));
  const auto& stride = exp.gandiva()->stride_for(ServerId(0));
  const double gang_tickets = stride.TicketsOf(gang).raw();
  const double single_tickets = stride.TicketsOf(single).raw();
  EXPECT_NEAR(gang_tickets / single_tickets, 4.0, 1e-9);
  EXPECT_NEAR(gang_tickets + 4 * single_tickets, 1.0, 1e-9);
}

TEST(TicketSplitTest, RepricingLeavesSteadyServersSkippable) {
  // Two 2-GPU servers and one user with four 1-GPU jobs: two per server,
  // demand == capacity, so every tick skips both. A fifth arrival lands on
  // server 0 and re-prices all five jobs through the user's published
  // rate — server 1's residents included — but only server 0's selectable
  // set changed, so the next tick must still skip server 1.
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 2);
  Experiment exp(config);
  const UserId a = exp.users().Create("a", 1.0).id;
  exp.UseGandivaFair({});
  for (int i = 0; i < 4; ++i) {
    exp.SubmitAt(kTimeZero, a, "DCGAN", 1, Hours(100));
  }
  exp.Run(Minutes(3));
  GandivaFairScheduler& g = *exp.gandiva();
  ASSERT_TRUE(g.last_plan().servers.empty());
  ASSERT_EQ(g.last_plan().skipped_vt.size(), 2u);

  const JobId late = exp.SubmitAt(Minutes(3) + Seconds(30), a, "DCGAN", 1, Hours(100));
  exp.Run(Minutes(3) + Seconds(30));
  ASSERT_EQ(exp.jobs().Get(late).server, ServerId(0));
  const GpuGeneration gen = exp.cluster().server(ServerId(1)).generation();
  for (JobId id : g.stride_for(ServerId(1)).ResidentJobs()) {
    EXPECT_EQ(g.stride_for(ServerId(1)).TicketsOf(id),
              g.PerJobTickets(a, gen, exp.jobs().Get(id)));
    EXPECT_EQ(g.stride_for(ServerId(1)).TicketsOf(id), Tickets(1.0 / 5.0));
  }
  EXPECT_FALSE(g.cluster_index().plan_dirty(ServerId(1)));

  exp.Run(Minutes(4));
  const SchedulePlan& plan = g.last_plan();
  ASSERT_EQ(plan.servers.size(), 1u);
  EXPECT_EQ(plan.servers[0].server, ServerId(0));
  ASSERT_EQ(plan.skipped_vt.size(), 1u);
  EXPECT_EQ(plan.skipped_vt[0].first, ServerId(1));
  EXPECT_TRUE(g.CheckInvariants().empty());
}

TEST(TicketSplitTest, MixedGangUserNotPenalizedOnBigJob) {
  // User A: one 8-gang + eight 1-GPU jobs (demand 16). User B: sixteen
  // 1-GPU jobs. Equal tickets, 2x8 servers. Under equal per-job splitting
  // A's 8-gang would starve at 1/9th of A's share; gang-proportional
  // splitting keeps A's total GPU time at half the cluster.
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a", 1.0);
  auto& b = exp.users().Create("b", 1.0);
  exp.UseGandivaFair({});
  exp.SubmitAt(kTimeZero, a.id, "ResNet-50", 8, Hours(2000));
  for (int i = 0; i < 8; ++i) {
    exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(2000));
  }
  for (int i = 0; i < 16; ++i) {
    exp.SubmitAt(kTimeZero, b.id, "DCGAN", 1, Hours(2000));
  }
  exp.Run(Hours(6));
  const double a_ms = exp.ledger().GpuMs(a.id, Hours(1), Hours(6));
  const double b_ms = exp.ledger().GpuMs(b.id, Hours(1), Hours(6));
  EXPECT_NEAR(a_ms / b_ms, 1.0, 0.10);
}

TEST(PrecopyTest, MigrationKeepsJobRunningThroughBulkTransfer) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 4);
  config.exec.precopy = true;
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  exp.UseGandivaFair({});
  const JobId id = exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(100));
  exp.Run(Minutes(2));
  ASSERT_TRUE(exp.exec().IsRunning(id));
  const ServerId source = exp.jobs().Get(id).server;

  // Draining the host forces a migration. Under pre-copy the job must KEEP
  // RUNNING at the source while the bulk checkpoint (600 ms at 1 GB/s)
  // ships; stop-and-copy would have suspended it here.
  exp.gandiva()->DrainServer(source);
  EXPECT_TRUE(exp.exec().IsRunning(id));
  EXPECT_TRUE(exp.gandiva()->residency().Info(id).precopying);
  exp.Run(exp.sim().Now() + Seconds(0.3));  // mid-bulk
  EXPECT_TRUE(exp.exec().IsRunning(id));
  EXPECT_EQ(exp.jobs().Get(id).server, source);

  // Past cutover + stop-and-copy tail: landed, re-attached, running again.
  exp.Run(exp.sim().Now() + Minutes(1));
  EXPECT_NE(exp.jobs().Get(id).server, source);
  EXPECT_TRUE(exp.exec().IsRunning(id));
  EXPECT_FALSE(exp.gandiva()->residency().Info(id).precopying);
  EXPECT_EQ(exp.exec().precopies_started(), 1);
  EXPECT_EQ(exp.exec().precopies_aborted(), 0);
  EXPECT_EQ(exp.exec().migration_failures(), 0);
  EXPECT_EQ(exp.gandiva()->migrations_started(), 1);
}

TEST(PrecopyTest, DestDownDuringBulkRetriesElsewhereWithoutStopping) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(3, 4);
  config.exec.precopy = true;
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  exp.UseGandivaFair({});
  const JobId id = exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(100));
  exp.Run(Minutes(2));
  const ServerId source = exp.jobs().Get(id).server;

  exp.gandiva()->DrainServer(source);
  ASSERT_TRUE(exp.gandiva()->residency().Info(id).precopying);
  // Kill the chosen destination while the bulk is in flight. The failure is
  // cheap — the job never stops running at its source — and the retry
  // ladder re-targets the remaining up server.
  ServerId first_dest = ServerId::Invalid();
  for (const auto& server : exp.cluster().servers()) {
    if (server.id() != source) {
      // DrainBatch targets the least-loaded non-source server; with both
      // empty that is the lowest id.
      first_dest = server.id();
      break;
    }
  }
  exp.Run(exp.sim().Now() + Seconds(0.2));
  exp.exec().FailServer(first_dest);
  EXPECT_TRUE(exp.exec().IsRunning(id));

  // Cutover fires at +600 ms and attributes a dest-down failure; the retry
  // backs off 30 s, then pre-copies to the surviving server and lands.
  exp.Run(exp.sim().Now() + Minutes(2));
  EXPECT_EQ(exp.exec().migration_failures_dest_down(), 1);
  EXPECT_EQ(exp.exec().migration_failures_flake(), 0);
  EXPECT_EQ(exp.gandiva()->migration_retries_started(), 1);
  const ServerId final_home = exp.jobs().Get(id).server;
  EXPECT_NE(final_home, source);
  EXPECT_NE(final_home, first_dest);
  EXPECT_TRUE(exp.exec().IsRunning(id));
  EXPECT_FALSE(exp.gandiva()->residency().Info(id).precopying);
}

TEST(WorkStealingTest, IdleServerStealsWaitingJob) {
  // Server 0 ends up with a 4-gang plus three 1-GPU long jobs (demand 7 on
  // 4 GPUs) while server 1 drains to empty: placement pins the singles to
  // server 0 because a huge-ticket user saturates server 1's ticket load.
  // Stealing must move waiting singles to server 1's idle GPUs.
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 4);
  Experiment exp(config);
  auto& a = exp.users().Create("a", 1.0);
  auto& heavy = exp.users().Create("heavy", 100.0);
  sched::GandivaFairConfig sched_config;
  sched_config.enable_load_balancing = false;  // isolate stealing
  exp.UseGandivaFair(sched_config);
  exp.SubmitAt(kTimeZero, a.id, "ResNet-50", 4, Hours(2000));   // server 0
  exp.SubmitAt(kTimeZero, heavy.id, "DCGAN", 4, Minutes(30));   // server 1, short
  for (int i = 0; i < 3; ++i) {
    exp.SubmitAt(Minutes(1), a.id, "DCGAN", 1, Hours(2000));    // pile on server 0
  }
  exp.Run(Hours(2));
  // Once the heavy user's job finishes, stealing must spread a's jobs so all
  // four run (8 GPUs, 7 demanded).
  int running = 0;
  for (const auto* job : exp.jobs().All()) {
    if (!job->finished() && exp.exec().IsRunning(job->id)) {
      ++running;
    }
  }
  EXPECT_EQ(running, 4);
  EXPECT_GT(exp.gandiva()->steals_started(), 0);
}

TEST(WorkStealingTest, DisabledMeansNoSteals) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 2);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  sched::GandivaFairConfig sched_config;
  sched_config.enable_work_stealing = false;
  sched_config.enable_load_balancing = false;
  exp.UseGandivaFair(sched_config);
  exp.SubmitAt(kTimeZero, a.id, "DCGAN", 2, Minutes(30));
  exp.SubmitAt(kTimeZero, a.id, "DCGAN", 2, Minutes(30));
  for (int i = 0; i < 3; ++i) {
    exp.SubmitAt(Minutes(1), a.id, "DCGAN", 1, Hours(100));
  }
  exp.Run(Hours(2));
  EXPECT_EQ(exp.gandiva()->steals_started(), 0);
  EXPECT_EQ(exp.gandiva()->migrations_started(), 0);
}

TEST(ProbeTest, JobsGetProfiledOnGenerationsTheyNeverChose) {
  // A single high-speedup model on a hetero cluster: placement favors V100,
  // so K80 estimates can only come from probe migrations.
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {GpuGeneration::kK80, 1, 8},
      {GpuGeneration::kV100, 1, 8},
  }};
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  auto& b = exp.users().Create("b");
  exp.UseGandivaFair({});
  for (int i = 0; i < 4; ++i) {
    exp.SubmitAt(kTimeZero, a.id, "ResNeXt-50", 1, Hours(500));
    exp.SubmitAt(kTimeZero, b.id, "VAE", 1, Hours(500));
  }
  exp.Run(Hours(3));
  const auto& profiles = exp.gandiva()->profiles();
  const auto model = exp.zoo().GetByName("ResNeXt-50").id;
  EXPECT_TRUE(profiles.HasEstimate(model, GpuGeneration::kK80));
  EXPECT_TRUE(profiles.HasEstimate(model, GpuGeneration::kV100));
}

TEST(TradeEpochTest, TicketsFollowTrades) {
  // After trading, the VAE user's V100 tickets must be below base and its
  // K80 tickets above base; the ResNeXt user mirrored.
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {GpuGeneration::kK80, 2, 8},
      {GpuGeneration::kV100, 2, 8},
  }};
  Experiment exp(config);
  auto& vae = exp.users().Create("vae", 1.0);
  auto& rex = exp.users().Create("rex", 1.0);
  exp.UseGandivaFair({});
  for (int i = 0; i < 20; ++i) {
    exp.SubmitAt(Minutes(i), vae.id, "VAE", 1, Hours(500));
    exp.SubmitAt(Minutes(i), rex.id, "ResNeXt-50", 1, Hours(500));
  }
  exp.Run(Hours(4));
  ASSERT_FALSE(exp.gandiva()->executed_trades().empty());
  const auto& tickets = exp.gandiva()->tickets();
  EXPECT_LT(tickets.Get(vae.id, GpuGeneration::kV100),
            tickets.Get(rex.id, GpuGeneration::kV100));
  EXPECT_GT(tickets.Get(vae.id, GpuGeneration::kK80),
            tickets.Get(rex.id, GpuGeneration::kK80));
  // And residency follows on the lender side (the traded volume is capped by
  // the borrower's slow-pool holdings, so the borrower's shift is smaller).
  EXPECT_GT(exp.gandiva()->ResidentDemand(vae.id, GpuGeneration::kK80),
            exp.gandiva()->ResidentDemand(vae.id, GpuGeneration::kV100));
  EXPECT_GE(exp.gandiva()->ResidentDemand(rex.id, GpuGeneration::kV100),
            exp.gandiva()->ResidentDemand(rex.id, GpuGeneration::kK80));
}

TEST(TradeEpochTest, TradesRevokedWhenBorrowerLeaves) {
  // Once the borrower's jobs finish, the next epoch recomputes from base:
  // the lender's V100 tickets return.
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {GpuGeneration::kK80, 1, 8},
      {GpuGeneration::kV100, 1, 8},
  }};
  Experiment exp(config);
  auto& vae = exp.users().Create("vae", 1.0);
  auto& rex = exp.users().Create("rex", 1.0);
  exp.UseGandivaFair({});
  for (int i = 0; i < 8; ++i) {
    exp.SubmitAt(kTimeZero, vae.id, "VAE", 1, Hours(500));
    exp.SubmitAt(kTimeZero, rex.id, "ResNeXt-50", 1, Hours(3));  // finishes early
  }
  exp.Run(Hours(8));
  // rex's jobs are long gone; vae must hold full base tickets everywhere.
  const auto& tickets = exp.gandiva()->tickets();
  EXPECT_DOUBLE_EQ(tickets.Get(vae.id, GpuGeneration::kV100).raw(), 1.0);
  // And vae's full demand (8 one-GPU jobs) is served (work conservation).
  const double vae_ms = exp.ledger().GpuMs(vae.id, Hours(6), Hours(8));
  EXPECT_GT(vae_ms / (8.0 * Hours(2)), 0.95);
}

TEST(BorrowerMarginTest, RateDiscountedButAboveLenderSpeedup) {
  TradeConfig config;
  config.borrower_margin = 0.10;
  GreedyTradePolicy engine(config);
  // Direct rate check through a synthetic epoch.
  TradeInputs inputs;
  inputs.active_users = {UserId(0), UserId(1)};
  inputs.base_tickets[UserId(0)] = 1.0;
  inputs.base_tickets[UserId(1)] = 1.0;
  inputs.total_demand_gpus[UserId(0)] = 64.0;
  inputs.total_demand_gpus[UserId(1)] = 64.0;
  inputs.pool_sizes[cluster::GenerationIndex(GpuGeneration::kK80)] = 32;
  inputs.pool_sizes[cluster::GenerationIndex(GpuGeneration::kV100)] = 32;
  inputs.user_speedup = [](UserId user, GpuGeneration fast, GpuGeneration slow,
                           Speedup* out) {
    if (fast != GpuGeneration::kV100 || slow != GpuGeneration::kK80) {
      return false;
    }
    *out = Speedup::FromRatio(user == UserId(0) ? 1.2 : 6.0);
    return true;
  };
  const auto outcome = engine.Allocate(inputs);
  ASSERT_FALSE(outcome.trades.empty());
  EXPECT_DOUBLE_EQ(outcome.trades[0].rate.raw(), 6.0 * 0.9);
  EXPECT_GT(outcome.trades[0].rate.raw(), 1.2);
}

}  // namespace
}  // namespace gfair::sched
