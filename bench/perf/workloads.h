// The four perfbench workloads. Each loads its cluster at a steady level in
// simulated time — a fixed population of long-lived jobs, or open-loop
// Poisson arrivals below the arriving users' share — so host time per
// simulated hour does not depend on how long a run lasts. README.md gives
// the reason each one exists and which layer it stresses.
#ifndef GFAIR_BENCH_PERF_WORKLOADS_H_
#define GFAIR_BENCH_PERF_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "analysis/harness.h"
#include "cluster/cluster.h"
#include "common/sim_time.h"
#include "sched/gandiva_fair.h"
#include "workload/trace_gen.h"

namespace gfair::perfbench {

// One user holding a fixed set of long-lived jobs from time zero.
struct PopulationSpec {
  std::string name;
  double tickets = 1.0;
  std::vector<std::pair<std::string, double>> model_mix;
  int gpus = 0;  // summed gang sizes of the user's jobs
  workload::GangSizeDist gangs = workload::GangSizeDist::SingleGpuOnly();
};

struct WorkloadSpec {
  std::string name;
  cluster::Topology topology;
  // Threads of the quantum tick; see SetTickThreads.
  int tick_threads = 1;
  // Steady-state fraction of servers down (MTTR 30 min); 0 = no faults.
  double down_fraction = 0.0;
  double migrate_failure_prob = 0.0;
  std::vector<PopulationSpec> populations;
  // Open-loop Poisson users. start/stop are ignored: arrivals run over the
  // whole horizon.
  std::vector<workload::UserWorkloadSpec> arrivals;
  // Submit at time zero the jobs a run that had been arriving forever would
  // hold (each with its remaining work), so the live job count starts at
  // its equilibrium instead of ramping up through the warm-up.
  bool equilibrium_start = false;
  SimDuration warmup = 0;
  SimDuration window = 0;        // measured window, after the warm-up
  SimDuration check_window = 0;  // the shorter window of --check
};

const std::vector<WorkloadSpec>& Workloads();
// nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

// The one place the quantum tick's thread knobs are set. 1 is the serial
// tick; n > 1 shards the plan 32 ways and fans plan and apply over n
// threads. The three knobs move together, so folding them into one thread
// count changes only this function.
void SetTickThreads(sched::GandivaFairConfig* config, int threads);

// Creates the workload's users on `exp` and returns every submission up to
// `horizon`: the fixed populations at time zero, then the arrivals drawn
// from `seed`.
std::vector<workload::TraceEntry> GenerateInputs(const WorkloadSpec& spec,
                                                 analysis::Experiment& exp, uint64_t seed,
                                                 SimTime horizon);

}  // namespace gfair::perfbench

#endif  // GFAIR_BENCH_PERF_WORKLOADS_H_
