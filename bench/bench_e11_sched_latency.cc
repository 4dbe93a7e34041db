// E11 — Scheduler decision latency (google-benchmark + CI smoke mode).
// Wall-clock cost of the scheduler's hot operations as the cluster scales:
// local stride selection, a full cluster quantum tick, and a trading epoch.
// The paper's claim is that split-stride scheduling keeps per-decision cost
// trivially small at 200-GPU scale.
//
// Cluster ticks come in two flavors:
//   * flip — 2x oversubscribed with identical jobs, so stride time-slices
//     every GPU every quantum: the worst case, dominated by the mandatory
//     suspend/resume actuation;
//   * steady — demand exactly covers capacity, so after warm-up no schedule
//     changes: the quantum pipeline's dirty-set skip proves every server
//     unchanged and per-quantum cost collapses to pass charging + sampling.
//
// Smoke mode (env-driven, replaces google-benchmark):
//   GFAIR_E11_WRITE_BASELINE=path  measure per-quantum medians, write the
//                                  flat-JSON baseline, exit 0.
//   GFAIR_E11_SMOKE=1              measure the same points; with
//   GFAIR_E11_BASELINE=path        compare p50s (tick and admission)
//                                  against the baseline and exit non-zero
//                                  on a regression beyond
//   GFAIR_E11_THRESHOLD            (fractional, default 0.25).
//   GFAIR_E11_POINTS=a,b           restrict to a comma-separated subset of
//                                  point keys (iterating on one scale point
//                                  without paying for the full sweep).
//                                  Opt-in points (the 100k-GPU steady_12500
//                                  pair) run only when named here and stay
//                                  out of the CI baseline; CI runs
//                                  steady_12500 measure-only, with no gate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/harness.h"
#include "bench/scenarios.h"
#include "sched/stride.h"
#include "sched/policy/greedy_trade_policy.h"

using namespace gfair;

namespace {

void BM_StrideSelectForQuantum(benchmark::State& state) {
  const int num_jobs = static_cast<int>(state.range(0));
  sched::LocalStrideScheduler stride(8);
  Rng rng(1);
  for (int i = 0; i < num_jobs; ++i) {
    const int gang = 1 << rng.UniformInt(0, 3);
    stride.AddJob(JobId(i), gang, rng.Uniform(0.1, 2.0));
  }
  for (auto _ : state) {
    auto selected = stride.SelectForQuantum();
    benchmark::DoNotOptimize(selected);
    for (JobId id : selected) {
      stride.Charge(id, 60'000);
    }
  }
  state.SetItemsProcessed(state.iterations() * num_jobs);
}
BENCHMARK(BM_StrideSelectForQuantum)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

// A homogeneous cluster of 8-GPU servers running identical infinite 1-GPU
// jobs, `jobs_per_server` per server, warmed up past its first quanta.
// `num_users` spreads the jobs round-robin. Each attach publishes its user's
// pool ticket rate once and marks each server hosting that user's pool jobs
// stale once (a walk over the user's hosting servers, not its jobs), and
// placement then re-sums the stale loads it reads, so fixture build still
// grows about as jobs^2 / users — the 12500-server points still submit under
// 256 users to keep construction short, and the tick being measured is
// user-count-agnostic (charge/sample/skip walk jobs and servers, never
// users).
std::unique_ptr<analysis::Experiment> MakeTickCluster(int num_servers,
                                                      int jobs_per_server,
                                                      int apply_threads = 1,
                                                      int plan_shards = 1,
                                                      int plan_threads = 1,
                                                      int num_users = 2) {
  analysis::ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(num_servers, 8);
  auto exp = std::make_unique<analysis::Experiment>(config);
  std::vector<UserId> users;
  users.reserve(static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) {
    users.push_back(exp->users().Create("u" + std::to_string(u)).id);
  }
  sched::GandivaFairConfig gf;
  gf.apply_threads = apply_threads;
  gf.plan_shards = plan_shards;
  gf.plan_threads = plan_threads;
  exp->UseGandivaFair(gf);
  for (int i = 0; i < num_servers * jobs_per_server; ++i) {
    exp->SubmitAt(kTimeZero, users[static_cast<size_t>(i % num_users)],
                  "DCGAN", 1, Hours(100000));
  }
  exp->Run(Minutes(2));
  return exp;
}

// Users for a scale point's fixture: 2 (the historical fixture) below
// 12500 servers, 256 at and above, keeping construction tractable.
int FixtureUsers(int num_servers) { return num_servers >= 12500 ? 256 : 2; }

// One full quantum tick across the whole cluster, 2x oversubscribed: every
// server flips its whole GPU complement every quantum.
void BM_ClusterQuantumTick(benchmark::State& state) {
  const int num_servers = static_cast<int>(state.range(0));
  auto exp = MakeTickCluster(num_servers, /*jobs_per_server=*/16);
  SimTime now = exp->sim().Now();
  for (auto _ : state) {
    now += Minutes(1);
    exp->Run(now);  // exactly one quantum tick (plus its suspend/resume churn)
  }
  state.SetLabel(std::to_string(num_servers * 8) + " GPUs");
}
BENCHMARK(BM_ClusterQuantumTick)
    ->Arg(1)
    ->Arg(4)
    ->Arg(25)
    ->Arg(64)
    ->Arg(125)
    ->Arg(250)  // 2000 GPUs: scale point well past the paper's 200-GPU cluster
    ->Arg(500)  // 4000 GPUs: headroom check for the flip-tick hot path
    ->Unit(benchmark::kMicrosecond);

// Steady state: demand == capacity, so after warm-up nothing changes and the
// planner's dirty-set skip elides every server's selection and diff.
void BM_ClusterQuantumTickSteady(benchmark::State& state) {
  const int num_servers = static_cast<int>(state.range(0));
  auto exp = MakeTickCluster(num_servers, /*jobs_per_server=*/8,
                             /*apply_threads=*/1, /*plan_shards=*/1,
                             /*plan_threads=*/1, FixtureUsers(num_servers));
  SimTime now = exp->sim().Now();
  for (auto _ : state) {
    now += Minutes(1);
    exp->Run(now);
  }
  state.SetLabel(std::to_string(num_servers * 8) + " GPUs, zero churn");
}
BENCHMARK(BM_ClusterQuantumTickSteady)
    ->Arg(25)
    ->Arg(64)
    ->Arg(250)
    ->Arg(1250)   // 10k GPUs
    ->Arg(12500)  // 100k GPUs
    ->Unit(benchmark::kMicrosecond);

// Sharded planning speedup curve: the same tick with the plan phase
// partitioned into 32 shards (the partition is fixed; decisions are
// bit-identical to the serial rows above) fanned over 1/2/4/8 threads.
// steady sweeps the dirty-set-skip path at 10k and 100k GPUs; flip adds the
// suspend/resume churn with apply_threads matched to plan_threads, i.e. the
// fully multi-threaded tick.
void BM_ClusterQuantumTickSteadySharded(benchmark::State& state) {
  const int num_servers = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto exp = MakeTickCluster(num_servers, /*jobs_per_server=*/8,
                             /*apply_threads=*/1, /*plan_shards=*/32, threads,
                             FixtureUsers(num_servers));
  SimTime now = exp->sim().Now();
  for (auto _ : state) {
    now += Minutes(1);
    exp->Run(now);
  }
  state.SetLabel(std::to_string(num_servers * 8) + " GPUs, 32 shards / " +
                 std::to_string(threads) + " threads, zero churn");
}
BENCHMARK(BM_ClusterQuantumTickSteadySharded)
    ->Args({1250, 1})
    ->Args({1250, 2})
    ->Args({1250, 4})
    ->Args({1250, 8})
    ->Args({12500, 1})
    ->Args({12500, 4})
    ->Args({12500, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_ClusterQuantumTickSharded(benchmark::State& state) {
  const int num_servers = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto exp = MakeTickCluster(num_servers, /*jobs_per_server=*/16,
                             /*apply_threads=*/threads, /*plan_shards=*/32,
                             threads);
  SimTime now = exp->sim().Now();
  for (auto _ : state) {
    now += Minutes(1);
    exp->Run(now);
  }
  state.SetLabel(std::to_string(num_servers * 8) + " GPUs, 32 shards / " +
                 std::to_string(threads) + " threads, full flip");
}
BENCHMARK(BM_ClusterQuantumTickSharded)
    ->Args({250, 1})
    ->Args({250, 2})
    ->Args({250, 4})
    ->Args({250, 8})
    ->Args({1250, 4})
    ->Args({1250, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_TradeEpoch(benchmark::State& state) {
  const int num_users = static_cast<int>(state.range(0));
  sched::TradeInputs inputs;
  Rng rng(3);
  for (int u = 0; u < num_users; ++u) {
    inputs.active_users.push_back(UserId(u));
    inputs.base_tickets[UserId(u)] = 1.0;
    inputs.total_demand_gpus[UserId(u)] = rng.Uniform(10.0, 100.0);
  }
  inputs.pool_sizes = {48, 40, 48, 64};
  std::vector<double> speedups(num_users);
  for (auto& speedup : speedups) {
    speedup = rng.Uniform(1.1, 6.0);
  }
  inputs.user_speedup = [&speedups](UserId user, cluster::GpuGeneration fast,
                                    cluster::GpuGeneration slow, gfair::Speedup* out) {
    const double base = speedups[user.value()];
    const double span = static_cast<double>(cluster::GenerationIndex(fast)) -
                        static_cast<double>(cluster::GenerationIndex(slow));
    *out = gfair::Speedup::FromRatio(1.0 + (base - 1.0) * span / 3.0);
    return true;
  };
  sched::GreedyTradePolicy engine(sched::TradeConfig{});
  for (auto _ : state) {
    auto outcome = engine.Allocate(inputs);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_TradeEpoch)->Arg(2)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

// End-to-end simulation throughput: simulated hours per wall second at paper
// scale (also a smoke test that 200-GPU runs are cheap to reproduce).
void BM_PaperScaleSimHour(benchmark::State& state) {
  analysis::ExperimentConfig config;
  config.topology = cluster::PaperScaleTopology();
  analysis::Experiment exp(config);
  std::vector<UserId> users;
  for (int u = 0; u < 8; ++u) {
    users.push_back(exp.users().Create("u" + std::to_string(u)).id);
  }
  exp.UseGandivaFair({});
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    exp.SubmitAt(Minutes(rng.UniformInt(0, 59)), users[i % 8], "DCGAN",
                 1 << rng.UniformInt(0, 2), Hours(100000));
  }
  exp.Run(Hours(1));
  SimTime now = exp.sim().Now();
  for (auto _ : state) {
    now += Hours(1);
    exp.Run(now);
  }
  state.SetLabel("simulated hour per iteration, 200 GPUs / 400 jobs");
}
BENCHMARK(BM_PaperScaleSimHour)->Unit(benchmark::kMillisecond);

// --- CI smoke mode ---

// Per-quantum wall-clock latency over `quanta` ticks (after a settling
// prefix), sampled with the shared PercentileSampler.
PercentileSampler MeasureTickLatency(int num_servers, int jobs_per_server,
                                     int quanta, int apply_threads = 1,
                                     int plan_shards = 1, int plan_threads = 1,
                                     int num_users = 2) {
  auto exp = MakeTickCluster(num_servers, jobs_per_server, apply_threads,
                             plan_shards, plan_threads, num_users);
  SimTime now = exp->sim().Now();
  for (int q = 0; q < 16; ++q) {  // settle stride state + allocator pools
    now += Minutes(1);
    exp->Run(now);
  }
  PercentileSampler sampler;
  for (int q = 0; q < quanta; ++q) {
    now += Minutes(1);
    const auto t0 = std::chrono::steady_clock::now();  // gfair-lint: allow(wall-clock) -- E11 measures real scheduler latency; never feeds the simulation
    exp->Run(now);
    const auto t1 = std::chrono::steady_clock::now();  // gfair-lint: allow(wall-clock) -- E11 measures real scheduler latency; never feeds the simulation
    sampler.Add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
        1000.0);
  }
  return sampler;
}

// Wall-clock latency of single submissions into a steady cluster of
// `jobs_per_server` resident jobs per server (two users). Each arrival sits
// off the tick grid (10 s apart, five per quantum) and only its instant is
// timed: placement, attach with its ticket refresh, and the immediate
// resume onto an idle GPU. The ticks in between run untimed.
PercentileSampler MeasureAdmitLatency(int num_servers, int jobs_per_server,
                                      int samples) {
  auto exp = MakeTickCluster(num_servers, jobs_per_server);
  std::vector<UserId> users;
  for (const workload::User& user : exp->users().users()) {
    users.push_back(user.id);
  }
  SimTime tick = exp->sim().Now();
  PercentileSampler sampler;
  int submitted = 0;
  while (submitted < samples) {
    for (int k = 1; k <= 5 && submitted < samples; ++k, ++submitted) {
      const SimTime at = tick + Seconds(10 * k);
      exp->SubmitAt(at, users[static_cast<size_t>(submitted) % users.size()], "DCGAN",
                    1, Hours(100000));
      exp->sim().RunUntil(at - 1);
      const auto t0 = std::chrono::steady_clock::now();  // gfair-lint: allow(wall-clock) -- E11 measures real scheduler latency; never feeds the simulation
      exp->sim().RunUntil(at);
      const auto t1 = std::chrono::steady_clock::now();  // gfair-lint: allow(wall-clock) -- E11 measures real scheduler latency; never feeds the simulation
      sampler.Add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
          1000.0);
    }
    tick += Minutes(1);
    exp->Run(tick);
  }
  return sampler;
}

int RunSmoke() {
  const char* write_path = std::getenv("GFAIR_E11_WRITE_BASELINE");
  const char* baseline_path = std::getenv("GFAIR_E11_BASELINE");
  const char* threshold_env = std::getenv("GFAIR_E11_THRESHOLD");
  const double threshold = threshold_env ? std::atof(threshold_env) : 0.25;

  struct Point {
    const char* key;
    int servers;
    int jobs_per_server;
    int apply_threads = 1;
    int plan_shards = 1;
    int plan_threads = 1;
    int num_users = 2;
    // Opt-in points run only when named in GFAIR_E11_POINTS: the 100k-GPU
    // fixtures (100k jobs, 256 users) take seconds to build and stay out of
    // the gated sweep and its baseline.
    bool opt_in = false;
  };
  const std::vector<Point> points = {
      {"flip_25", 25, 16},    {"flip_64", 64, 16},   {"flip_125", 125, 16},
      {"flip_250", 250, 16},  {"flip_500", 500, 16},
      {"flip_250_par4", 250, 16, 4},  // threaded ApplyDelta slices
      {"steady_64", 64, 8},   {"steady_250", 250, 8},
      {"steady_1250", 1250, 8},  // 10k GPUs, one shard
      // 10k GPUs with the sharded parallel planner (32 shards / 8 threads);
      // decisions are bit-identical to steady_1250, only the wall clock moves.
      {"steady_1250_shard8", 1250, 8, 1, 32, 8},
      // 100k-GPU scale points (opt-in; see FixtureUsers for the 256).
      {"steady_12500", 12500, 8, 1, 1, 1, 256, true},
      {"steady_12500_shard8", 12500, 8, 1, 32, 8, 256, true},
  };

  const char* points_env = std::getenv("GFAIR_E11_POINTS");
  const std::string points_filter = points_env != nullptr ? points_env : "";
  const auto point_enabled = [&points_filter](const char* key) {
    if (points_filter.empty()) {
      return true;
    }
    size_t pos = 0;
    while (pos < points_filter.size()) {
      size_t comma = points_filter.find(',', pos);
      if (comma == std::string::npos) {
        comma = points_filter.size();
      }
      if (points_filter.compare(pos, comma - pos, key) == 0) {
        return true;
      }
      pos = comma + 1;
    }
    return false;
  };

  std::vector<std::pair<std::string, double>> recorded;
  // Admission: 1250 x 8 GPUs holding ~4k resident 1-GPU jobs per user (6 per
  // server, 2 users), timing single submissions off the grid. Gated like the
  // tick points, so a return to per-job ticket refresh (each arrival
  // rewriting all of its user's jobs) fails CI.
  if (point_enabled("admit_1250")) {
    const bench::LatencySummary summary =
        bench::Summarize(MeasureAdmitLatency(1250, /*jobs_per_server=*/6, 300));
    std::cout << "E11 smoke admit_1250: p50 " << summary.p50 << " us, p95 "
              << summary.p95 << " us, mean " << summary.mean << " us over "
              << summary.count << " submissions\n";
    recorded.emplace_back("admit_us_p50_admit_1250", summary.p50);
    recorded.emplace_back("admit_us_p95_admit_1250", summary.p95);
  }
  for (const Point& point : points) {
    if (!point_enabled(point.key) || (point.opt_in && points_filter.empty())) {
      continue;
    }
    const auto sampler =
        MeasureTickLatency(point.servers, point.jobs_per_server, 300,
                           point.apply_threads, point.plan_shards,
                           point.plan_threads, point.num_users);
    const bench::LatencySummary summary = bench::Summarize(sampler);
    std::cout << "E11 smoke " << point.key << ": p50 " << summary.p50
              << " us, p95 " << summary.p95 << " us, mean " << summary.mean
              << " us over " << summary.count << " quanta\n";
    recorded.emplace_back(std::string("tick_us_p50_") + point.key, summary.p50);
    recorded.emplace_back(std::string("tick_us_p95_") + point.key, summary.p95);
  }

  if (write_path != nullptr) {
    bench::WriteFlatJson(write_path, recorded);
    std::cout << "E11 baseline written to " << write_path << "\n";
    return 0;
  }
  if (baseline_path == nullptr) {
    return 0;  // measure-only smoke
  }
  std::vector<std::pair<std::string, double>> baseline;
  if (!bench::ReadFlatJson(baseline_path, &baseline)) {
    std::cerr << "E11 smoke: cannot read baseline " << baseline_path << "\n";
    return 1;
  }
  // Gate on medians only (tick and admission); p95s ride along in the
  // baseline for forensics.
  int violations = 0;
  for (const auto& [key, old_value] : baseline) {
    if (key.rfind("tick_us_p50_", 0) != 0 && key.rfind("admit_us_p50_", 0) != 0) {
      continue;
    }
    double new_value = -1.0;
    for (const auto& [new_key, value] : recorded) {
      if (new_key == key) {
        new_value = value;
      }
    }
    if (new_value < 0.0) {
      if (!points_filter.empty()) {
        continue;  // point excluded by GFAIR_E11_POINTS, not missing
      }
      std::cerr << "E11 REGRESSION CHECK: baseline key " << key
                << " no longer measured\n";
      violations += 1;
    } else if (new_value > old_value * (1.0 + threshold)) {
      std::cerr << "E11 REGRESSION: " << key << " " << old_value << " us -> "
                << new_value << " us (>" << threshold * 100.0 << "%)\n";
      violations += 1;
    }
  }
  if (violations == 0) {
    std::cout << "E11 smoke: per-quantum and per-admission medians within "
              << threshold * 100.0 << "% of baseline\n";
  }
  return violations > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::getenv("GFAIR_E11_SMOKE") != nullptr ||
      std::getenv("GFAIR_E11_WRITE_BASELINE") != nullptr) {
    return RunSmoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
