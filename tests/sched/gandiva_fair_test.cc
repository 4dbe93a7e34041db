// Integration-level tests of GandivaFairScheduler through the harness.
#include "sched/gandiva_fair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>

#include "analysis/harness.h"
#include "analysis/metrics.h"
#include "common/stats.h"

namespace gfair::sched {
namespace {

using analysis::Experiment;
using analysis::ExperimentConfig;
using cluster::GpuGeneration;

TEST(GandivaFairTest, SingleJobRunsImmediatelyAndFinishes) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 8);
  Experiment exp(config);
  auto& user = exp.users().Create("u");
  exp.UseGandivaFair({});
  const JobId id = exp.SubmitAt(kTimeZero, user.id, "DCGAN", 2, Minutes(30));
  exp.Run(Hours(1));
  const auto& job = exp.jobs().Get(id);
  EXPECT_TRUE(job.finished());
  // DCGAN 3.125x on V100: ~9.6 min of work, plus warmup.
  EXPECT_LT(job.finish_time, Minutes(12));
}

TEST(GandivaFairTest, EqualTicketsEqualGpuTime) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a", 1.0);
  auto& b = exp.users().Create("b", 1.0);
  exp.UseGandivaFair({});
  // Both oversubscribe: a with 2x4-GPU gangs, b with 8x1-GPU jobs.
  exp.SubmitAt(kTimeZero, a.id, "ResNet-50", 4, Hours(100));
  exp.SubmitAt(kTimeZero, a.id, "ResNet-50", 4, Hours(100));
  for (int i = 0; i < 8; ++i) {
    exp.SubmitAt(kTimeZero, b.id, "DCGAN", 1, Hours(100));
  }
  exp.Run(Hours(6));
  const double a_ms = exp.ledger().GpuMs(a.id, kTimeZero, Hours(6));
  const double b_ms = exp.ledger().GpuMs(b.id, kTimeZero, Hours(6));
  EXPECT_NEAR(a_ms / b_ms, 1.0, 0.05);
}

TEST(GandivaFairTest, GpuTimeProportionalToTickets) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a", 1.0);
  auto& b = exp.users().Create("b", 3.0);
  exp.UseGandivaFair({});
  for (int i = 0; i < 8; ++i) {
    exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(100));
    exp.SubmitAt(kTimeZero, b.id, "DCGAN", 1, Hours(100));
  }
  exp.Run(Hours(6));
  const double a_ms = exp.ledger().GpuMs(a.id, kTimeZero, Hours(6));
  const double b_ms = exp.ledger().GpuMs(b.id, kTimeZero, Hours(6));
  EXPECT_NEAR(b_ms / a_ms, 3.0, 0.15);
}

TEST(GandivaFairTest, WorkConservationWhenOtherUserIdle) {
  // A user with demand for the whole cluster gets the whole cluster when
  // alone, regardless of shares.
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 4);
  Experiment exp(config);
  auto& a = exp.users().Create("a", 1.0);
  exp.users().Create("idle-user", 99.0);
  exp.UseGandivaFair({});
  for (int i = 0; i < 4; ++i) {
    exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(100));
  }
  exp.Run(Hours(2));
  const double a_ms = exp.ledger().GpuMs(a.id, kTimeZero, Hours(2));
  EXPECT_GT(a_ms / (4.0 * Hours(2)), 0.97);
}

TEST(GandivaFairTest, ShareAdaptsWhenUserJoins) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a", 1.0);
  auto& b = exp.users().Create("b", 1.0);
  exp.UseGandivaFair({});
  for (int i = 0; i < 8; ++i) {
    exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(200));
  }
  for (int i = 0; i < 8; ++i) {
    exp.SubmitAt(Hours(2), b.id, "DCGAN", 1, Hours(200));
  }
  exp.Run(Hours(4));
  // Phase 1 (0-2h): a alone -> ~16 GPU-hours. Phase 2 (2-4h): split -> ~8 each.
  const double a_phase1 = exp.ledger().GpuMs(a.id, kTimeZero, Hours(2)) / kHour;
  const double a_phase2 = exp.ledger().GpuMs(a.id, Hours(2), Hours(4)) / kHour;
  const double b_phase2 = exp.ledger().GpuMs(b.id, Hours(2), Hours(4)) / kHour;
  EXPECT_NEAR(a_phase1, 16.0, 0.8);
  EXPECT_NEAR(a_phase2, 8.0, 0.8);
  EXPECT_NEAR(b_phase2, 8.0, 0.8);
}

TEST(GandivaFairTest, GangScheduledAtomically) {
  // A 4-GPU gang must always hold exactly 0 or 4 GPUs.
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  exp.UseGandivaFair({});
  const JobId gang = exp.SubmitAt(kTimeZero, a.id, "ResNet-50", 4, Hours(50));
  for (int i = 0; i < 6; ++i) {
    exp.SubmitAt(Minutes(i), a.id, "DCGAN", 1, Hours(50));
  }
  for (int step = 1; step <= 120; ++step) {
    exp.Run(Minutes(step));
    int held = 0;
    for (const auto& server : exp.cluster().servers()) {
      held += server.CountHeldBy(gang);
    }
    EXPECT_TRUE(held == 0 || held == 4) << "at minute " << step << ": " << held;
  }
}

TEST(GandivaFairTest, LoadBalancerEvensOutTicketLoad) {
  // Placement spreads arrivals, but staggered finishes skew per-server load;
  // the balancer must migrate jobs to repair it. Jobs finishing in server
  // order (all of server 0's first, etc.) force the skew deterministically.
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(4, 4);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  GandivaFairConfig sched_config;
  sched_config.min_migration_interval = Minutes(2);
  sched_config.balance_period = Minutes(5);
  exp.UseGandivaFair(sched_config);
  // 16 1-GPU jobs placed round-robin (4 per server). Durations arranged so
  // jobs on low-numbered servers finish early: i-th job lands on server i%4
  // and runs (i%4+1) long blocks.
  for (int i = 0; i < 16; ++i) {
    const int server = i % 4;
    exp.SubmitAt(Seconds(i), a.id, "DCGAN", 1,
                 server < 2 ? Minutes(30) : Hours(200));
  }
  exp.Run(Hours(3));
  // Eight long jobs survive on servers 2-3 unless the balancer spreads them.
  EXPECT_GT(exp.gandiva()->migrations_started(), 0);
  int max_resident = 0;
  int min_resident = 99;
  for (const auto& server : exp.cluster().servers()) {
    int resident = 0;
    for (const auto* job : exp.jobs().All()) {
      if (!job->finished() && job->server == server.id()) {
        ++resident;
      }
    }
    max_resident = std::max(max_resident, resident);
    min_resident = std::min(min_resident, resident);
  }
  EXPECT_LE(max_resident - min_resident, 1);
}

TEST(GandivaFairTest, ProfilerLearnsRatesOnHomeGeneration) {
  // Two generations: the tick profiles only where trade epochs run.
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {GpuGeneration::kK80, 1, 4},
      {GpuGeneration::kV100, 1, 4},
  }};
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  exp.UseGandivaFair({});
  exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(50));
  exp.Run(Hours(1));
  const auto& zoo = exp.zoo();
  const auto model = zoo.GetByName("DCGAN").id;
  const auto& profiles = exp.gandiva()->profiles();
  ASSERT_TRUE(profiles.HasEstimate(model, GpuGeneration::kV100));
  EXPECT_NEAR(profiles.EstimatedRate(model, GpuGeneration::kV100).raw(), 50.0, 2.5);
}

// The tick samples running jobs for the profiler only where trade epochs
// run — they are its only reader. Without them no sample is drawn.
void ExpectNoProfileSamples(Experiment& exp) {
  const ProfileStore& profiles = exp.gandiva()->profiles();
  for (const auto& model : exp.zoo().models()) {
    for (GpuGeneration gen : cluster::kAllGenerations) {
      EXPECT_EQ(profiles.SampleCount(model.id, gen), 0u)
          << model.name << " on " << cluster::GenerationName(gen);
    }
  }
}

TEST(GandivaFairTest, NoProfileSamplesOnSingleGenerationCluster) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 4);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  exp.UseGandivaFair({});
  exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(50));
  exp.SubmitAt(kTimeZero, a.id, "ResNet-50", 2, Hours(50));
  exp.Run(Hours(1));
  EXPECT_EQ(exp.jobs().Get(JobId(0)).state, workload::JobState::kRunning);
  ExpectNoProfileSamples(exp);
}

TEST(GandivaFairTest, NoProfileSamplesWithTradingOff) {
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {GpuGeneration::kK80, 1, 4},
      {GpuGeneration::kV100, 1, 4},
  }};
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  GandivaFairConfig sched_config;
  sched_config.enable_trading = false;
  exp.UseGandivaFair(sched_config);
  exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(50));
  exp.SubmitAt(kTimeZero, a.id, "ResNet-50", 2, Hours(50));
  exp.Run(Hours(1));
  EXPECT_EQ(exp.jobs().Get(JobId(0)).state, workload::JobState::kRunning);
  ExpectNoProfileSamples(exp);
}

// A job's finish event lands on a quantum tick's millisecond but is queued
// behind the tick (the job resumed between ticks), and that tick deselects
// the job. The tick's suspend catches the job with its work done; it must
// finish at that instant. (Before, it stayed suspended with no work left
// and the next resume aborted on `remaining > 0`.)
struct TickPath {
  const char* name;
  int apply_threads;
  int plan_shards;
  int plan_threads;
};

// Prints the path's name, which ctest then uses for the case. gtest's
// default dump shows the name's address, so the test names would change
// from build to build.
void PrintTo(const TickPath& path, std::ostream* os) { *os << path.name; }

class FinishOnTickTest : public ::testing::TestWithParam<TickPath> {};

TEST_P(FinishOnTickTest, JobSuspendedAtItsFinishInstantFinishesThere) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 1);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  auto& b = exp.users().Create("b");
  GandivaFairConfig sched_config;
  sched_config.apply_threads = GetParam().apply_threads;
  sched_config.plan_shards = GetParam().plan_shards;
  sched_config.plan_threads = GetParam().plan_threads;
  exp.UseGandivaFair(sched_config);

  for (SimTime tick : {Minutes(1), Minutes(3)}) {
    const workload::ModelId model = exp.zoo().GetByName("DCGAN").id;
    const double rate = exp.zoo().Get(model).GangThroughput(GpuGeneration::kV100, 1);
    const double minibatches = rate * 20.3;
    // Executor::Resume's own finish arithmetic.
    const SimDuration work =
        static_cast<SimDuration>(std::ceil(minibatches / rate * kSecond));
    const SimTime start = tick - exp.exec().ResumeLatency(model) - work;
    // The GPU is idle at `start` (the previous round's jobs are gone), so
    // the job resumes on arrival; the other user's job arrives next and
    // waits with the lower pass, which the tick then selects.
    const JobId done = exp.SubmitWorkAt(start, a.id, model, 1, minibatches);
    const JobId waiting = exp.SubmitWorkAt(start + Seconds(5), b.id, model, 1,
                                           rate * 30.0);
    exp.Run(tick + Seconds(50));
    const workload::Job& job = exp.jobs().Get(done);
    ASSERT_TRUE(job.finished()) << "tick " << tick;
    EXPECT_EQ(job.finish_time, tick);
    EXPECT_EQ(job.num_suspends, 1);  // the tick did catch it
    EXPECT_TRUE(exp.jobs().Get(waiting).finished());
    const auto violations = exp.gandiva()->CheckInvariants();
    EXPECT_TRUE(violations.empty()) << violations.front();
  }
  exp.Run(Hours(1));
}

INSTANTIATE_TEST_SUITE_P(
    TickPaths, FinishOnTickTest,
    ::testing::Values(TickPath{"Serial", 1, 1, 1}, TickPath{"ParallelApply", 2, 1, 1},
                      TickPath{"Sharded", 1, 2, 1}, TickPath{"Pooled", 2, 2, 2}));

TEST(GandivaFairTest, TradingImprovesLenderWithoutHurtingBorrower) {
  auto run = [](bool trading) {
    ExperimentConfig config;
    config.topology = cluster::Topology{{
        {GpuGeneration::kK80, 2, 8},
        {GpuGeneration::kV100, 2, 8},
    }};
    config.seed = 11;
    auto exp = std::make_unique<Experiment>(config);
    auto& vae_user = exp->users().Create("vae", 1.0);
    auto& rex_user = exp->users().Create("rex", 1.0);
    GandivaFairConfig sched_config;
    sched_config.enable_trading = trading;
    exp->UseGandivaFair(sched_config);
    for (int i = 0; i < 24; ++i) {
      exp->SubmitAt(Minutes(2 * i), vae_user.id, "VAE", 1, Hours(60));
      exp->SubmitAt(Minutes(2 * i + 1), rex_user.id, "ResNeXt-50", 1, Hours(60));
    }
    exp->Run(Hours(8));
    const auto summaries = analysis::SummarizeUsers(
        exp->jobs(), exp->users(), exp->ledger(), exp->zoo(), kTimeZero, Hours(8));
    return std::pair<double, double>(summaries[0].useful_k80_gpu_hours,
                                     summaries[1].useful_k80_gpu_hours);
  };
  const auto [vae_no, rex_no] = run(false);
  const auto [vae_yes, rex_yes] = run(true);
  EXPECT_GT(vae_yes, vae_no * 1.1);   // lender gains markedly
  // Borrower trades at its own (noisily profiled) speedup, so it is
  // indifferent in expectation; allow scheduling noise around that.
  EXPECT_GT(rex_yes, rex_no * 0.90);
  // And the cluster as a whole does strictly more useful work.
  EXPECT_GT(vae_yes + rex_yes, (vae_no + rex_no) * 1.05);
}

TEST(GandivaFairTest, NoTradingOnHomogeneousCluster) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 4);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  exp.UseGandivaFair({});
  exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(10));
  exp.Run(Hours(2));
  EXPECT_TRUE(exp.gandiva()->executed_trades().empty());
}

TEST(GandivaFairTest, EntitlementSplitsPoolByTickets) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a", 1.0);
  auto& b = exp.users().Create("b", 3.0);
  exp.UseGandivaFair({});
  exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(10));
  exp.SubmitAt(kTimeZero, b.id, "DCGAN", 1, Hours(10));
  exp.Run(Minutes(5));
  EXPECT_NEAR(exp.gandiva()->EntitlementGpus(a.id, GpuGeneration::kV100), 4.0, 1e-9);
  EXPECT_NEAR(exp.gandiva()->EntitlementGpus(b.id, GpuGeneration::kV100), 12.0, 1e-9);
}

TEST(GandivaFairTest, FinishedJobsFreeTheirShare) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 4);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  auto& b = exp.users().Create("b");
  exp.UseGandivaFair({});
  exp.SubmitAt(kTimeZero, a.id, "DCGAN", 2, Minutes(20));  // short
  exp.SubmitAt(kTimeZero, b.id, "DCGAN", 4, Hours(100));   // long
  exp.Run(Hours(2));
  // After a's job finishes, b must hold the whole server.
  const double b_late = exp.ledger().GpuMs(b.id, Hours(1), Hours(2));
  EXPECT_GT(b_late / (4.0 * Hours(1)), 0.97);
}

TEST(GandivaFairTest, OverheadStaysSmallRelativeToQuantum) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 4);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  exp.UseGandivaFair({});
  // 8 jobs time-slicing 4 GPUs for hours: suspend/resume overhead accrues but
  // must stay a small fraction of total GPU time.
  for (int i = 0; i < 8; ++i) {
    exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(100));
  }
  exp.Run(Hours(4));
  double total_overhead_ms = 0.0;
  double total_gpu_ms = 0.0;
  for (const auto* job : exp.jobs().All()) {
    total_overhead_ms += static_cast<double>(job->overhead_ms);
    total_gpu_ms += job->TotalGpuMs();
  }
  EXPECT_LT(total_overhead_ms / total_gpu_ms, 0.10);
}

// A crash between ticks ends the job's run segment without telling the
// scheduler. The next tick must charge only what ran: the crashed job's pass
// is unchanged, and the server's virtual time gets nothing from it.
TEST(GandivaFairTest, CrashedJobIsNotChargedForTheNextTick) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  auto& b = exp.users().Create("b");
  GandivaFairConfig sched_config;
  sched_config.enable_load_balancing = false;
  exp.UseGandivaFair(sched_config);
  const JobId crashed = exp.SubmitAt(kTimeZero, a.id, "DCGAN", 4, Hours(100));
  const JobId running = exp.SubmitAt(kTimeZero, b.id, "DCGAN", 4, Hours(100));
  exp.Run(Minutes(2) + Seconds(1));  // both ran through the 2-minute tick
  ASSERT_TRUE(exp.exec().IsRunning(crashed));
  ASSERT_TRUE(exp.exec().IsRunning(running));
  const ServerId server = exp.jobs().Get(crashed).server;
  const LocalStrideScheduler& stride = exp.gandiva()->stride_for(server);
  const Pass crashed_pass = stride.PassOf(crashed);
  const Pass vt_before = stride.VirtualTime();

  exp.exec().InjectCrash(crashed);
  exp.Run(Minutes(3) + Seconds(1));  // the 3-minute tick

  EXPECT_EQ(stride.PassOf(crashed), crashed_pass);
  // The virtual time moved by the running job's quantum alone, then took the
  // tick's min-pass floor.
  const Pass charged =
      vt_before + Stride::FromService(static_cast<double>(Minutes(1)), 4, stride.TicketLoad());
  EXPECT_EQ(stride.VirtualTime(),
            std::max(charged, std::min(crashed_pass, stride.PassOf(running))));
  EXPECT_TRUE(exp.exec().IsRunning(crashed));  // the tick resumed it
}

// A job's charge clock carries across residencies. The job last ran through
// the 2-minute tick on server A, then migrates to B and lands suspended (B's
// GPUs are busy); B fails before any tick resumes it. Its final charge on B
// covers the span since that tick on A, not since the landing, and moves B's
// virtual time by exactly that charge.
TEST(GandivaFairTest, OrphanIsFinalChargedFromItsLastChargeOnTheServerBefore) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 4);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  auto& b = exp.users().Create("b");
  GandivaFairConfig sched_config;
  sched_config.enable_load_balancing = false;
  sched_config.enable_trading = false;
  sched_config.enable_work_stealing = false;
  exp.UseGandivaFair(sched_config);
  // The holder (the lower id, so B's failure orphans it first) fills B; the
  // mover runs alone on A.
  const JobId holder = exp.SubmitAt(kTimeZero, a.id, "DCGAN", 4, Hours(100));
  const JobId mover = exp.SubmitAt(kTimeZero, b.id, "DCGAN", 4, Hours(100));
  exp.Run(Minutes(2) + Seconds(1));
  const ServerId server_a = exp.jobs().Get(mover).server;
  const ServerId server_b = exp.jobs().Get(holder).server;
  ASSERT_NE(server_a, server_b);
  ASSERT_TRUE(exp.exec().IsRunning(mover));
  const SimTime last_charge_on_a = Minutes(2);

  exp.gandiva()->DrainServer(server_a);  // migrates the mover to B
  exp.Run(Minutes(2) + Seconds(20));
  const workload::Job& job = exp.jobs().Get(mover);
  ASSERT_EQ(job.server, server_b);
  ASSERT_EQ(job.state, workload::JobState::kSuspended);

  const LocalStrideScheduler& stride_b = exp.gandiva()->stride_for(server_b);
  Pass vt_before;
  Pass vt_after;
  Tickets load = 0.0;
  exp.exec().set_on_job_orphaned([&](JobId id) {
    if (id == mover) {
      // The holder has left B: the mover is its only resident.
      vt_before = stride_b.VirtualTime();
      load = stride_b.TicketLoad();
    }
    exp.gandiva()->OnJobOrphaned(id);
    if (id == mover) {
      vt_after = stride_b.VirtualTime();
    }
  });
  const SimTime failed_at = Minutes(2) + Seconds(30);
  exp.sim().At(failed_at, [&] { exp.exec().FailServer(server_b); });
  exp.Run(Minutes(2) + Seconds(40));
  ASSERT_GT(load, 0.0);
  EXPECT_EQ(vt_after,
            vt_before + Stride::FromService(
                            static_cast<double>(failed_at - last_charge_on_a), 4, load));
}

}  // namespace
}  // namespace gfair::sched
