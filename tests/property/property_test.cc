// Property-style parameterized suites over the core invariants:
//  * stride: GPU time tracks tickets for arbitrary ticket ratios & gangs;
//  * trading: no user worse off / pools conserved for arbitrary speedups;
//  * scheduler: fairness and capacity conservation across cluster shapes;
//  * executor: progress accounting exact under random suspend patterns.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>

#include "analysis/harness.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sched/stride.h"
#include "sched/policy/greedy_trade_policy.h"

namespace gfair {
namespace {

// ---------------------------------------------------------------------------
// Stride proportionality sweep.
// ---------------------------------------------------------------------------

struct StrideCase {
  double tickets_a;
  double tickets_b;
  int gang_a;
  int gang_b;
};

// No PrintTo: the struct has no padding, so gtest's byte dump (which names
// the registered tests) is the same in every build.
static_assert(sizeof(StrideCase) == 2 * sizeof(double) + 2 * sizeof(int));

class StrideProportionality : public ::testing::TestWithParam<StrideCase> {};

TEST_P(StrideProportionality, GpuTimeMatchesTicketRatio) {
  const StrideCase param = GetParam();
  sched::LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), param.gang_a, param.tickets_a);
  stride.AddJob(JobId(1), param.gang_b, param.tickets_b);
  std::map<JobId, double> gpu_time;
  for (int tick = 0; tick < 20'000; ++tick) {
    for (JobId id : stride.SelectForQuantum()) {
      gpu_time[id] += stride.GangOf(id);
      stride.Charge(id, 1);
    }
  }
  // Both jobs always fit together (gangs sum <= 8), so each is capped by its
  // own gang size; stride must deliver min(demand, ticket share) — with both
  // demands below capacity, both run continuously.
  if (param.gang_a + param.gang_b <= 8) {
    EXPECT_NEAR(gpu_time[JobId(0)], 20'000.0 * param.gang_a, 1.0);
    EXPECT_NEAR(gpu_time[JobId(1)], 20'000.0 * param.gang_b, 1.0);
  } else {
    // Contended: GPU time ratio must track the ticket ratio.
    const double ratio = gpu_time[JobId(0)] / gpu_time[JobId(1)];
    EXPECT_NEAR(ratio, param.tickets_a / param.tickets_b,
                0.08 * param.tickets_a / param.tickets_b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, StrideProportionality,
    ::testing::Values(StrideCase{1.0, 1.0, 4, 4}, StrideCase{1.0, 1.0, 8, 8},
                      StrideCase{2.0, 1.0, 8, 8}, StrideCase{5.0, 1.0, 8, 8},
                      StrideCase{1.0, 3.0, 8, 4}, StrideCase{1.0, 1.0, 2, 4},
                      StrideCase{0.5, 2.0, 8, 8}, StrideCase{10.0, 1.0, 4, 8}));

// ---------------------------------------------------------------------------
// Trading invariants sweep.
// ---------------------------------------------------------------------------

struct TradeCase {
  double speedup_a;
  double speedup_b;
  double demand_a;
  double demand_b;
  sched::TradeConfig::RateRule rule;
};

// Prints every field, so the registered test names are stable (gtest's
// default byte dump includes the padding after `rule`, which varies by build).
void PrintTo(const TradeCase& c, std::ostream* os) {
  *os << c.speedup_a << "x " << c.demand_a << " GPUs vs " << c.speedup_b << "x "
      << c.demand_b << " GPUs "
      << (c.rule == sched::TradeConfig::RateRule::kBorrowerSpeedup ? "borrower"
                                                                    : "geometric");
}

class TradeInvariants : public ::testing::TestWithParam<TradeCase> {};

TEST_P(TradeInvariants, NoUserWorseOffAndPoolsConserved) {
  const TradeCase param = GetParam();
  constexpr size_t kK80 = 0;
  constexpr size_t kV100 = 3;

  sched::TradeInputs inputs;
  inputs.active_users = {UserId(0), UserId(1)};
  inputs.base_tickets[UserId(0)] = 1.0;
  inputs.base_tickets[UserId(1)] = 1.0;
  inputs.total_demand_gpus[UserId(0)] = param.demand_a;
  inputs.total_demand_gpus[UserId(1)] = param.demand_b;
  inputs.pool_sizes[kK80] = 24;
  inputs.pool_sizes[kV100] = 24;
  inputs.user_speedup = [&param](UserId user, cluster::GpuGeneration fast,
                                 cluster::GpuGeneration slow, Speedup* out) {
    if (fast != cluster::GpuGeneration::kV100 || slow != cluster::GpuGeneration::kK80) {
      return false;
    }
    *out = Speedup::FromRatio(user == UserId(0) ? param.speedup_a : param.speedup_b);
    return true;
  };

  sched::TradeConfig config;
  config.rate_rule = param.rule;
  sched::GreedyTradePolicy engine(config);
  const auto outcome = engine.Allocate(inputs);

  // Pools conserved, no negative entitlements.
  for (size_t g : {kK80, kV100}) {
    double total = 0.0;
    for (const auto& [user, ent] : outcome.entitlements) {
      EXPECT_GE(ent[g], -1e-9);
      total += ent[g];
    }
    EXPECT_NEAR(total, 24.0, 1e-6);
  }
  // No user worse off, valued at its own speedup.
  const double speedups[] = {param.speedup_a, param.speedup_b};
  for (UserId user : inputs.active_users) {
    const auto& ent = outcome.entitlements.at(user);
    const double before = 12.0 + speedups[user.value()] * 12.0;
    const double after = ent[kK80] + speedups[user.value()] * ent[kV100];
    EXPECT_GE(after, before - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Speedups, TradeInvariants,
    ::testing::Values(
        TradeCase{1.1, 6.0, 48, 48, sched::TradeConfig::RateRule::kBorrowerSpeedup},
        TradeCase{1.5, 2.0, 48, 48, sched::TradeConfig::RateRule::kBorrowerSpeedup},
        TradeCase{2.0, 2.0, 48, 48, sched::TradeConfig::RateRule::kBorrowerSpeedup},
        TradeCase{1.1, 6.0, 48, 48, sched::TradeConfig::RateRule::kGeometricMean},
        TradeCase{1.0, 4.0, 30, 60, sched::TradeConfig::RateRule::kGeometricMean},
        TradeCase{1.2, 5.9, 100, 10, sched::TradeConfig::RateRule::kBorrowerSpeedup},
        TradeCase{3.0, 1.2, 48, 48, sched::TradeConfig::RateRule::kBorrowerSpeedup}));

// ---------------------------------------------------------------------------
// Scheduler-level fairness & conservation across cluster shapes and seeds.
// ---------------------------------------------------------------------------

struct FairnessCase {
  int num_users;
  int num_servers;
  int gpus_per_server;
  uint64_t seed;
};

// Prints every field (see TradeCase's PrintTo; here the padding follows
// `gpus_per_server`).
void PrintTo(const FairnessCase& c, std::ostream* os) {
  *os << c.num_users << " users on " << c.num_servers << "x" << c.gpus_per_server
      << " GPUs seed " << c.seed;
}

class SchedulerFairness : public ::testing::TestWithParam<FairnessCase> {};

TEST_P(SchedulerFairness, SaturatedEqualUsersGetEqualShares) {
  const FairnessCase param = GetParam();
  analysis::ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(param.num_servers, param.gpus_per_server);
  config.seed = param.seed;
  analysis::Experiment exp(config);
  std::vector<UserId> users;
  for (int u = 0; u < param.num_users; ++u) {
    users.push_back(exp.users().Create("u" + std::to_string(u)).id);
  }
  exp.UseGandivaFair({});
  // Every user saturates the cluster with 1- and 2-GPU jobs.
  Rng rng(param.seed);
  const int total_gpus = param.num_servers * param.gpus_per_server;
  for (UserId user : users) {
    int demand = 0;
    while (demand < total_gpus) {
      const int gang = rng.Bernoulli(0.3) ? 2 : 1;
      exp.SubmitAt(Minutes(rng.UniformInt(0, 10)), user, "DCGAN", gang, Hours(500));
      demand += gang;
    }
  }
  const SimTime horizon = Hours(4);
  exp.Run(horizon);

  std::vector<double> shares;
  double total_ms = 0.0;
  for (UserId user : users) {
    const double ms = exp.ledger().GpuMs(user, Hours(1), horizon);
    shares.push_back(ms);
    total_ms += exp.ledger().GpuMs(user, kTimeZero, horizon);
  }
  EXPECT_GT(JainIndex(shares), 0.98);
  // Conservation: never more than capacity; near-full when oversubscribed.
  const double capacity_ms = static_cast<double>(total_gpus) * horizon;
  EXPECT_LE(total_ms, capacity_ms * 1.0001);
  EXPECT_GT(total_ms, capacity_ms * 0.90);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedulerFairness,
    ::testing::Values(FairnessCase{2, 1, 8, 1}, FairnessCase{3, 2, 4, 2},
                      FairnessCase{4, 2, 8, 3}, FairnessCase{6, 4, 4, 4},
                      FairnessCase{2, 1, 8, 5}, FairnessCase{4, 2, 8, 7}));

// ---------------------------------------------------------------------------
// Executor progress-accounting exactness under random preemption.
// ---------------------------------------------------------------------------

class ExecutorAccounting : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorAccounting, ProgressEqualsProductiveTimeTimesRate) {
  simkit::Simulator sim;
  cluster::Cluster cluster(cluster::HomogeneousTopology(1, 2, cluster::GpuGeneration::kP40));
  workload::JobTable jobs;
  exec::Executor exec(sim, cluster, workload::ModelZoo::Default(), jobs,
                      exec::ExecutorConfig{}, GetParam());
  const auto& model = workload::ModelZoo::Default().GetByName("LSTM-LM");
  workload::Job& job = jobs.Create(UserId(0), model.id, 2, 1e12, 0);
  exec.MakeResident(job.id, ServerId(0));

  Rng rng(GetParam());
  int resumes = 0;
  for (int i = 0; i < 50; ++i) {
    sim.RunUntil(sim.Now() + Seconds(rng.UniformInt(1, 600)));
    if (job.state == workload::JobState::kSuspended) {
      exec.Resume(job.id);
      ++resumes;
    } else {
      exec.Suspend(job.id);
    }
  }
  if (job.state == workload::JobState::kRunning) {
    exec.Suspend(job.id);
  }
  // Invariant: completed = rate * (gpu_time/gang - resumes*warmup), within
  // clamping slack for segments shorter than the warm-up.
  const double rate = model.GangThroughput(cluster::GpuGeneration::kP40, 2);
  const double wall_ms = job.TotalGpuMs() / 2.0;
  const double warmup_ms =
      static_cast<double>(exec.ResumeLatency(model.id) * resumes);
  const double expected = rate * (wall_ms - warmup_ms) / kSecond;
  EXPECT_GE(job.completed_minibatches + 1e-6, expected);
  EXPECT_LE(job.completed_minibatches, rate * wall_ms / kSecond + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorAccounting,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace gfair
