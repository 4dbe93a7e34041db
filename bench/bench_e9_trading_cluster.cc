// E9 — Cluster-wide trading efficiency on the heterogeneous 200-GPU cluster.
//
// Eight users with skewed model mixes (speedups 1.2x..5.9x) each run a fixed
// set of long-lived jobs oversubscribing their share — the paper's
// steady-state snapshot workload. We measure each user's useful-work rate
// over the second half of a 12-hour run (first half = profiling + trade
// convergence), with trading on vs off on identical workloads. Trading must
// raise aggregate useful work while leaving no user's rate materially lower.
#include <array>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/harness.h"
#include "analysis/metrics.h"
#include "sched/decision_log.h"
#include "common/rng.h"
#include "common/table.h"

using namespace gfair;

namespace {

struct UserMix {
  const char* name;
  double tickets;
  std::vector<const char*> models;
};

const std::vector<UserMix>& Mixes() {
  static const std::vector<UserMix> mixes = {
      {"vae-lab", 1.0, {"VAE", "VAE", "SuperResolution"}},
      {"audio-lab", 1.0, {"DeepSpeech2", "GRU-LM", "LSTM-LM"}},
      {"gan-lab", 1.0, {"DCGAN", "DCGAN", "SuperResolution"}},
      {"mixed-a", 2.0, {"ResNet-18", "LSTM-LM", "DCGAN"}},
      {"mixed-b", 1.0, {"InceptionV3", "GRU-LM"}},
      {"vision-a", 1.0, {"ResNet-50", "ResNet-50", "InceptionV3"}},
      {"vision-b", 2.0, {"ResNeXt-50", "ResNeXt-50", "ResNet-50"}},
      {"nlp-lab", 1.0, {"Transformer", "Transformer", "ResNeXt-50"}},
  };
  return mixes;
}

struct RunResult {
  std::vector<double> user_work;  // useful K80-GPU-hours over the window
  double total_work = 0.0;
  cluster::PerGeneration<double> pool_utilization{};
  size_t trades = 0;
  int64_t migrations = 0;
  // Migration breakdown by cause (balance/conserve/steal/probe/trade).
  std::array<int64_t, sched::kNumDecisionTypes> decisions{};
};

RunResult RunOnce(bool trading, uint64_t seed) {
  analysis::ExperimentConfig config;
  config.topology = cluster::PaperScaleTopology();
  config.seed = seed;
  analysis::Experiment exp(config);

  std::vector<UserId> ids;
  for (const auto& mix : Mixes()) {
    ids.push_back(exp.users().Create(mix.name, mix.tickets).id);
  }
  sched::GandivaFairConfig sched_config;
  sched_config.enable_trading = trading;
  exp.UseGandivaFair(sched_config);

  // Each user: ~38 GPUs of demand (1.5x the 25-GPU equal share) as a fixed
  // mix of 1/2/4-GPU gangs over its models, all submitted in the first hour.
  Rng rng(5);
  for (size_t u = 0; u < Mixes().size(); ++u) {
    const auto& mix = Mixes()[u];
    int demand = 0;
    size_t next_model = 0;
    while (demand < 38) {
      const int gang = static_cast<int>(1 << rng.UniformInt(0, 2));  // 1/2/4
      exp.SubmitAt(Minutes(rng.UniformInt(0, 59)), ids[u],
                   mix.models[next_model % mix.models.size()], gang, Hours(100000));
      next_model += 1;
      demand += gang;
    }
  }

  const SimTime measure_from = Hours(6);
  const SimTime horizon = Hours(12);
  exp.Run(measure_from);
  // Snapshot progress at the start of the measurement window.
  std::vector<double> work_at_start(Mixes().size(), 0.0);
  for (const auto* job : exp.jobs().All()) {
    work_at_start[job->user.value()] += analysis::UsefulK80GpuHours(*job, exp.zoo());
  }
  exp.Run(horizon);

  RunResult result;
  result.user_work.assign(Mixes().size(), 0.0);
  for (const auto* job : exp.jobs().All()) {
    result.user_work[job->user.value()] +=
        analysis::UsefulK80GpuHours(*job, exp.zoo());
  }
  for (size_t u = 0; u < result.user_work.size(); ++u) {
    result.user_work[u] -= work_at_start[u];
    result.total_work += result.user_work[u];
  }
  result.pool_utilization = analysis::PoolUtilization(exp.ledger(), exp.users(),
                                                      exp.cluster(), measure_from,
                                                      horizon);
  result.trades = exp.gandiva()->executed_trades().size();
  result.migrations = exp.gandiva()->migrations_started();
  for (size_t t = 0; t < sched::kNumDecisionTypes; ++t) {
    result.decisions[t] = exp.gandiva()->decisions().Count(static_cast<sched::DecisionType>(t));
  }
  return result;
}

}  // namespace

int main() {
  // The workload is fixed; seeds vary only scheduling dynamics (profiler
  // noise, placement tie-breaks). Averaging paired runs separates trading's
  // systematic effect from per-run allocation noise.
  const std::vector<uint64_t> seeds = {29, 31, 37, 41, 43};
  RunResult no_trade;
  RunResult traded;
  no_trade.user_work.assign(Mixes().size(), 0.0);
  traded.user_work.assign(Mixes().size(), 0.0);
  for (uint64_t seed : seeds) {
    const RunResult off = RunOnce(false, seed);
    const RunResult on = RunOnce(true, seed);
    for (size_t u = 0; u < Mixes().size(); ++u) {
      no_trade.user_work[u] += off.user_work[u] / seeds.size();
      traded.user_work[u] += on.user_work[u] / seeds.size();
    }
    no_trade.total_work += off.total_work / seeds.size();
    traded.total_work += on.total_work / seeds.size();
    for (size_t g = 0; g < cluster::kNumGenerations; ++g) {
      no_trade.pool_utilization[g] += off.pool_utilization[g] / seeds.size();
      traded.pool_utilization[g] += on.pool_utilization[g] / seeds.size();
    }
    // Counts are summed here and divided once below: dividing each run's
    // count first would drop up to one per seed.
    no_trade.trades += off.trades;
    traded.trades += on.trades;
    no_trade.migrations += off.migrations;
    traded.migrations += on.migrations;
    for (size_t t = 0; t < sched::kNumDecisionTypes; ++t) {
      no_trade.decisions[t] += off.decisions[t];
      traded.decisions[t] += on.decisions[t];
    }
  }
  const auto runs = static_cast<int64_t>(seeds.size());
  for (RunResult* mean : {&no_trade, &traded}) {
    mean->trades /= seeds.size();
    mean->migrations /= runs;
    for (int64_t& count : mean->decisions) {
      count /= runs;
    }
  }

  Table users({"user", "tickets", "V100/K80 mix", "work/6h (no trade)",
               "work/6h (trading)", "gain"});
  int losers = 0;
  for (size_t u = 0; u < Mixes().size(); ++u) {
    const double before = no_trade.user_work[u];
    const double after = traded.user_work[u];
    if (after < before * 0.97) {
      ++losers;
    }
    const auto& zoo = workload::ModelZoo::Default();
    double mix_speedup = 0.0;
    for (const char* model : Mixes()[u].models) {
      mix_speedup += zoo.GetByName(model).SpeedupOver(cluster::GpuGeneration::kV100,
                                                      cluster::GpuGeneration::kK80);
    }
    mix_speedup /= static_cast<double>(Mixes()[u].models.size());
    users.BeginRow()
        .Cell(Mixes()[u].name)
        .Cell(Mixes()[u].tickets, 1)
        .Cell(mix_speedup, 1)
        .Cell(before, 0)
        .Cell(after, 0)
        .Cell(FormatDouble(before > 0 ? after / before : 1.0, 2) + "x");
  }
  users.Report(
      "E9: steady-state useful work per user (K80-GPU-h over hours 6-12), 200 GPUs",
      "e9_trading_cluster_users");

  Table summary({"metric", "no trading", "trading", "change"});
  summary.BeginRow()
      .Cell("total useful work (K80-GPU-h)")
      .Cell(no_trade.total_work, 0)
      .Cell(traded.total_work, 0)
      .Cell(FormatDouble((traded.total_work / no_trade.total_work - 1.0) * 100.0, 1) +
            "%");
  for (cluster::GpuGeneration gen : cluster::kAllGenerations) {
    const std::string name =
        std::string(cluster::GenerationName(gen)) + " pool utilization";
    const double before = no_trade.pool_utilization[cluster::GenerationIndex(gen)];
    const double after = traded.pool_utilization[cluster::GenerationIndex(gen)];
    summary.BeginRow()
        .Cell(name)
        .Cell(before, 3)
        .Cell(after, 3)
        .Cell(FormatDouble((after - before) * 100.0, 1) + "pp");
  }
  for (sched::DecisionType type :
       {sched::DecisionType::kMigrateBalance, sched::DecisionType::kMigrateConserve,
        sched::DecisionType::kMigrateSteal, sched::DecisionType::kMigrateProbe,
        sched::DecisionType::kMigrateTrade}) {
    summary.BeginRow()
        .Cell(std::string("  ") + sched::DecisionTypeName(type))
        .Cell(no_trade.decisions[static_cast<size_t>(type)])
        .Cell(traded.decisions[static_cast<size_t>(type)])
        .Cell("--");
  }
  summary.BeginRow()
      .Cell("trades / migrations")
      .Cell(std::to_string(no_trade.trades) + " / " + std::to_string(no_trade.migrations))
      .Cell(std::to_string(traded.trades) + " / " + std::to_string(traded.migrations))
      .Cell("--");
  summary.Report("E9 summary", "e9_trading_cluster_summary");
  std::cout << "Users losing >3% useful work under trading: " << losers
            << " (paper's guarantee: none).\n";
  return 0;
}
