#include "bench/perf/workloads.h"

#include <algorithm>
#include <cmath>

#include "bench/scenarios.h"
#include "common/check.h"
#include "common/rng.h"

namespace gfair::perfbench {

namespace {

// K80 runtime of a long-lived job: far past any window even on a V100.
constexpr SimDuration kLongLived = Hours(100000);

// How far back an equilibrium start looks for jobs still running at time
// zero: TraceGenerator clamps a job's K80 runtime at 10x its user's mean,
// and no generation is slower than the K80.
SimDuration PrefillFor(const WorkloadSpec& spec) {
  SimDuration longest = 0;
  for (const auto& user : spec.arrivals) {
    longest = std::max(longest, 10 * user.mean_duration_k80);
  }
  return longest;
}

std::vector<double> Weights(const std::vector<std::pair<std::string, double>>& mix) {
  std::vector<double> weights;
  for (const auto& entry : mix) {
    weights.push_back(entry.second);
  }
  return weights;
}

workload::UserWorkloadSpec PoissonUser(std::string name,
                                       std::vector<std::pair<std::string, double>> mix,
                                       SimDuration mean_interarrival,
                                       SimDuration mean_duration_k80,
                                       workload::GangSizeDist gangs) {
  workload::UserWorkloadSpec user;
  user.name = std::move(name);
  user.model_mix = std::move(mix);
  user.mean_interarrival = mean_interarrival;
  user.mean_duration_k80 = mean_duration_k80;
  user.duration_sigma = 0.5;
  user.gang_sizes = std::move(gangs);
  return user;
}

// The paper topology times `scale`: the E9 users hold long-lived 1/2/4-GPU
// jobs at 1.5x their share, and two Poisson users submit finite 1-K80-hour
// jobs well below theirs.
WorkloadSpec HeteroMix(std::string name, int scale) {
  WorkloadSpec spec;
  spec.name = std::move(name);
  spec.topology = cluster::PaperScaleTopology();
  for (cluster::ServerGroup& group : spec.topology.groups) {
    group.num_servers *= scale;
  }
  const workload::GangSizeDist churn_gangs{{{1, 0.7}, {2, 0.2}, {4, 0.1}}};
  const SimDuration interarrival = Seconds(13.0 * 60.0 / scale);
  spec.arrivals = {
      PoissonUser("churn-a", {{"ResNet-50", 1.0}, {"DCGAN", 1.0}}, interarrival, Hours(1),
                  churn_gangs),
      PoissonUser("churn-b", {{"Transformer", 1.0}, {"VAE", 1.0}}, interarrival, Hours(1),
                  churn_gangs),
  };
  const std::vector<workload::UserWorkloadSpec> e9 = bench::ClusterUserSpecs(kTimeZero);
  double total_tickets = 0.0;
  for (const auto& user : e9) {
    total_tickets += user.tickets.raw();
  }
  for (const auto& user : spec.arrivals) {
    total_tickets += user.tickets.raw();
  }
  const double total_gpus = spec.topology.TotalGpus();
  for (const auto& user : e9) {
    PopulationSpec pop;
    pop.name = user.name;
    pop.tickets = user.tickets.raw();
    pop.model_mix = user.model_mix;
    pop.gpus = static_cast<int>(std::lround(1.5 * total_gpus * pop.tickets / total_tickets));
    pop.gangs = workload::GangSizeDist{{{1, 0.5}, {2, 0.3}, {4, 0.2}}};
    spec.populations.push_back(std::move(pop));
  }
  return spec;
}

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec churn = HeteroMix("paper200_churn", 1);
  churn.down_fraction = 0.05;
  churn.migrate_failure_prob = 0.01;
  churn.warmup = Hours(1);
  churn.window = Hours(24 * 20);
  churn.check_window = Hours(24 * 2);
  all.push_back(std::move(churn));

  WorkloadSpec hetero = HeteroMix("hetero2k", 10);
  hetero.warmup = Hours(1);
  hetero.window = Hours(24 * 2);
  hetero.check_window = Hours(6);
  all.push_back(std::move(hetero));

  // Demand equals capacity (4 x 2,500 GPUs on 10k), plus a churn user whose
  // 30-K80-minute jobs keep a few servers changing every quantum. Two tick
  // threads, not one per core: a fork-join tick waits for its slowest
  // worker, and with a worker on every core of a shared 4-vCPU host any
  // other runnable thread stalls one of them.
  WorkloadSpec steady;
  steady.name = "steady10k_par2";
  steady.topology = cluster::HomogeneousTopology(1250, 8);
  steady.tick_threads = 2;
  for (int u = 0; u < 4; ++u) {
    PopulationSpec pop;
    pop.name = "steady-" + std::to_string(u);
    pop.model_mix = {{"DCGAN", 1.0}};
    pop.gpus = 2500;
    steady.populations.push_back(std::move(pop));
  }
  steady.arrivals = {PoissonUser("churn", {{"ResNet-50", 1.0}}, Seconds(6), Minutes(30),
                                 workload::GangSizeDist::SingleGpuOnly())};
  steady.warmup = Minutes(20);
  steady.window = Hours(6);
  steady.check_window = Hours(2);
  all.push_back(std::move(steady));

  // Four users each submit a 1-GPU job every 25 s; a job runs ~14 h on a
  // V100 on average, so ~8.3k jobs are live at once (~83% of the GPUs, ~2.1k
  // per user) and nothing is time-sliced. Every arrival and departure
  // re-derives tickets for all of its user's jobs, so admission does most of
  // the work. The long mean keeps the rate low enough that a window holds
  // the ticks a tick p95 needs; the heavy tail (sigma 1.5) still finishes
  // about a tenth of a window's arrivals inside it, for the JCT.
  WorkloadSpec admit;
  admit.name = "admit10k";
  admit.topology = cluster::HomogeneousTopology(1250, 8);
  for (int u = 0; u < 4; ++u) {
    admit.arrivals.push_back(PoissonUser("admit-" + std::to_string(u), {{"DCGAN", 1.0}},
                                         Seconds(25), Hours(50),
                                         workload::GangSizeDist::SingleGpuOnly()));
    admit.arrivals.back().duration_sigma = 1.5;
  }
  admit.equilibrium_start = true;
  admit.warmup = Minutes(2);
  admit.window = Minutes(100);
  admit.check_window = Minutes(100);
  all.push_back(std::move(admit));
  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = BuildWorkloads();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

void SetTickThreads(sched::GandivaFairConfig* config, int threads) {
  GFAIR_CHECK(threads >= 1);
  config->plan_shards = threads > 1 ? 32 : 1;
  config->plan_threads = threads;
  config->apply_threads = threads;
}

std::vector<workload::TraceEntry> GenerateInputs(const WorkloadSpec& spec,
                                                 analysis::Experiment& exp, uint64_t seed,
                                                 SimTime horizon) {
  const workload::ModelZoo& zoo = exp.zoo();
  std::vector<workload::TraceEntry> trace;

  // The long-lived populations are the same for every seed: their model mix
  // sets most of a run's cost and useful work, and drawing it from the seed
  // would bury a change's effect under seed-to-seed variation. The seed
  // drives the arrivals, the faults and the profiler's noise.
  Rng rng(0x706f70756c617465ULL);
  for (const PopulationSpec& pop : spec.populations) {
    const UserId user = exp.users().Create(pop.name, pop.tickets).id;
    const std::vector<double> model_weights = Weights(pop.model_mix);
    std::vector<double> gang_weights;
    for (const auto& entry : pop.gangs.entries) {
      gang_weights.push_back(entry.second);
    }
    for (int left = pop.gpus; left > 0;) {
      int gang = pop.gangs.entries[rng.WeightedIndex(gang_weights)].first;
      while (gang > left) {
        gang /= 2;
      }
      const workload::ModelProfile& model =
          zoo.GetByName(pop.model_mix[rng.WeightedIndex(model_weights)].first);
      trace.push_back(workload::TraceEntry{
          user, model.id, gang,
          workload::TraceGenerator::MinibatchesFor(model, gang, kLongLived), kTimeZero});
      left -= gang;
    }
  }

  if (!spec.arrivals.empty()) {
    const SimDuration prefill = spec.equilibrium_start ? PrefillFor(spec) : 0;
    std::vector<workload::UserWorkloadSpec> users = spec.arrivals;
    std::vector<UserId> ids;
    for (workload::UserWorkloadSpec& user : users) {
      user.start = kTimeZero;
      user.stop = prefill + horizon;
      ids.push_back(exp.users().Create(user.name, user.tickets).id);
    }
    GFAIR_CHECK(!spec.equilibrium_start || spec.topology.groups.size() == 1);
    const cluster::GpuGeneration gen = spec.topology.groups.front().generation;
    workload::TraceGenerator generator(zoo, seed);
    for (workload::TraceEntry entry : generator.Generate(users, ids)) {
      entry.arrival -= prefill;
      if (entry.arrival >= kTimeZero) {
        trace.push_back(entry);
        continue;
      }
      // Arrived before time zero: keep it, with the work it would still
      // have left had it run uninterrupted since arriving.
      const double run_ms = entry.total_minibatches /
                            zoo.Get(entry.model).GangThroughput(gen, entry.gang_size) *
                            static_cast<double>(kSecond);
      const double left_ms = static_cast<double>(entry.arrival) + run_ms;
      if (left_ms > 0.0) {
        entry.total_minibatches *= left_ms / run_ms;
        entry.arrival = kTimeZero;
        trace.push_back(entry);
      }
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const workload::TraceEntry& a, const workload::TraceEntry& b) {
                     return a.arrival < b.arrival;
                   });
  return trace;
}

}  // namespace gfair::perfbench
