// Property sweeps over heterogeneous clusters and failure injection:
//  * trading never leaves a user below its no-trade useful work (beyond a
//    noise band) across workload skews and topologies;
//  * fairness holds on heterogeneous clusters without trading;
//  * crash storms never corrupt accounting invariants.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "analysis/harness.h"
#include "analysis/metrics.h"
#include "common/rng.h"
#include "common/stats.h"

namespace gfair {
namespace {

using analysis::Experiment;
using analysis::ExperimentConfig;
using cluster::GpuGeneration;

// ---------------------------------------------------------------------------
// Heterogeneous fairness without trading: per-pool proportional shares
// compose into ticket-proportional cluster GPU time when both users demand
// everything.
// ---------------------------------------------------------------------------

struct HeteroCase {
  int k80_servers;
  int v100_servers;
  double tickets_b;
  uint64_t seed;
};

// No PrintTo: the struct has no padding, so gtest's byte dump (which names
// the registered tests) is the same in every build.
static_assert(sizeof(HeteroCase) == 2 * sizeof(int) + sizeof(double) + sizeof(uint64_t));

class HeteroFairness : public ::testing::TestWithParam<HeteroCase> {};

TEST_P(HeteroFairness, GpuTimeTracksTicketsAcrossPools) {
  const HeteroCase param = GetParam();
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      {GpuGeneration::kK80, param.k80_servers, 4},
      {GpuGeneration::kV100, param.v100_servers, 4},
  }};
  config.seed = param.seed;
  Experiment exp(config);
  auto& a = exp.users().Create("a", 1.0);
  auto& b = exp.users().Create("b", param.tickets_b);
  sched::GandivaFairConfig sched_config;
  sched_config.enable_trading = false;  // isolate the fairness mechanism
  exp.UseGandivaFair(sched_config);

  const int total = exp.cluster().total_gpus();
  for (int i = 0; i < total; ++i) {
    exp.SubmitAt(kTimeZero, a.id, "DCGAN", 1, Hours(4000));
    exp.SubmitAt(kTimeZero, b.id, "LSTM-LM", 1, Hours(4000));
  }
  exp.Run(Hours(5));
  const double a_ms = exp.ledger().GpuMs(a.id, Hours(1), Hours(5));
  const double b_ms = exp.ledger().GpuMs(b.id, Hours(1), Hours(5));
  EXPECT_NEAR(b_ms / a_ms, param.tickets_b, 0.12 * param.tickets_b);
  // The per-job and per-user accountings must agree exactly.
  EXPECT_LT(analysis::LedgerJobConsistencyGap(exp.jobs(), exp.users(), exp.ledger()),
            1.0);
}

INSTANTIATE_TEST_SUITE_P(Topologies, HeteroFairness,
                         ::testing::Values(HeteroCase{1, 1, 1.0, 1},
                                           HeteroCase{2, 2, 1.0, 2},
                                           HeteroCase{2, 1, 2.0, 3},
                                           HeteroCase{1, 3, 3.0, 4},
                                           HeteroCase{3, 1, 1.0, 5}));

// ---------------------------------------------------------------------------
// Trading safety sweep: across workload skews, the lender gains and nobody
// collapses.
// ---------------------------------------------------------------------------

struct TradeSweepCase {
  const char* low_model;
  const char* high_model;
  int jobs_per_user;
  uint64_t seed;
};

// Prints the case by value. gtest's default dump of this struct shows the
// model names' addresses and the padding bytes, which differ from run to run,
// so the registered test names would never be the same twice.
void PrintTo(const TradeSweepCase& c, std::ostream* os) {
  *os << c.low_model << " vs " << c.high_model << " " << c.jobs_per_user
      << " jobs seed " << c.seed;
}

class TradingSafety : public ::testing::TestWithParam<TradeSweepCase> {};

TEST_P(TradingSafety, LenderGainsBorrowerHolds) {
  const TradeSweepCase param = GetParam();
  auto run = [&](bool trading) {
    ExperimentConfig config;
    config.topology = cluster::Topology{{
        {GpuGeneration::kK80, 2, 8},
        {GpuGeneration::kV100, 2, 8},
    }};
    config.seed = param.seed;
    auto exp = std::make_unique<Experiment>(config);
    auto& low = exp->users().Create("low", 1.0);
    auto& high = exp->users().Create("high", 1.0);
    sched::GandivaFairConfig sched_config;
    sched_config.enable_trading = trading;
    exp->UseGandivaFair(sched_config);
    for (int i = 0; i < param.jobs_per_user; ++i) {
      exp->SubmitAt(Minutes(i), low.id, param.low_model, 1, Hours(100));
      exp->SubmitAt(Minutes(i), high.id, param.high_model, 1, Hours(100));
    }
    exp->Run(Hours(8));
    const auto summaries = analysis::SummarizeUsers(
        exp->jobs(), exp->users(), exp->ledger(), exp->zoo(), Hours(2), Hours(8));
    return std::pair<double, double>(summaries[0].useful_k80_gpu_hours,
                                     summaries[1].useful_k80_gpu_hours);
  };
  const auto [low_off, high_off] = run(false);
  const auto [low_on, high_on] = run(true);
  EXPECT_GT(low_on, low_off * 1.05) << "lender must gain";
  EXPECT_GT(high_on, high_off * 0.88) << "borrower must hold (noise band)";
  EXPECT_GT(low_on + high_on, (low_off + high_off) * 1.0) << "aggregate must not drop";
}

INSTANTIATE_TEST_SUITE_P(
    Skews, TradingSafety,
    ::testing::Values(TradeSweepCase{"VAE", "ResNeXt-50", 24, 11},
                      TradeSweepCase{"VAE", "Transformer", 24, 13},
                      TradeSweepCase{"SuperResolution", "ResNeXt-50", 30, 17},
                      TradeSweepCase{"VAE", "ResNet-50", 24, 19}));

// ---------------------------------------------------------------------------
// Crash-storm invariants.
// ---------------------------------------------------------------------------

class CrashStorm : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashStorm, AccountingInvariantsSurvive) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(2, 4);
  config.seed = GetParam();
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  exp.UseGandivaFair({});
  std::vector<JobId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(exp.SubmitAt(Minutes(i), a.id, "DCGAN", 1 + (i % 2), Hours(3)));
  }
  Rng chaos(GetParam());
  for (int step = 5; step <= 600; step += 5) {
    exp.Run(Minutes(step));
    std::vector<JobId> live;
    for (JobId id : ids) {
      const auto& job = exp.jobs().Get(id);
      if (!job.finished() && (job.state == workload::JobState::kRunning ||
                              job.state == workload::JobState::kSuspended)) {
        live.push_back(id);
      }
    }
    if (!live.empty() && chaos.Bernoulli(0.5)) {
      exp.exec().InjectCrash(live[static_cast<size_t>(
          chaos.UniformInt(0, static_cast<int64_t>(live.size()) - 1))]);
    }
    // Invariants at every step: progress within bounds, GPU occupancy
    // consistent, no job both finished and resident.
    for (JobId id : ids) {
      const auto& job = exp.jobs().Get(id);
      EXPECT_GE(job.completed_minibatches, job.checkpointed_minibatches - 1e-6);
      EXPECT_LE(job.completed_minibatches, job.total_minibatches + 1e-6);
      if (job.finished()) {
        EXPECT_FALSE(job.resident());
      }
    }
    int held = 0;
    for (const auto& server : exp.cluster().servers()) {
      held += server.num_busy();
    }
    int running_gangs = 0;
    for (JobId id : ids) {
      if (exp.exec().IsRunning(id)) {
        running_gangs += exp.jobs().Get(id).gang_size;
      }
    }
    EXPECT_EQ(held, running_gangs);
  }
  exp.Run(Hours(40));
  for (JobId id : ids) {
    EXPECT_TRUE(exp.jobs().Get(id).finished()) << "job " << id.value();
  }
  EXPECT_LT(analysis::LedgerJobConsistencyGap(exp.jobs(), exp.users(), exp.ledger()),
            1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStorm, ::testing::Values(1, 7, 23, 99));

}  // namespace
}  // namespace gfair
