// One repetition of a perfbench workload: set-up, the stepped measured
// window, and the checks on the simulation's outputs.
//
// Layers are measured only from outside, by timing calls to their public
// functions. After a single Experiment::Run to the end of the warm-up, time
// advances only through Simulator::RunUntil, so no step adds a SyncAll. For
// each instant t of the window (a quantum tick or an arrival) the run steps
// to t-1 ms and then to t; only the second step is timed for latency, so it
// holds exactly the events at t. After every step the DecisionLog's new
// entries are folded into a digest. Experiment::Run(horizon) ends the window.
#ifndef GFAIR_BENCH_PERF_PERFBENCH_H_
#define GFAIR_BENCH_PERF_PERFBENCH_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/perf/perf_helpers.h"
#include "bench/perf/workloads.h"
#include "common/sim_time.h"
#include "sched/decision_log.h"

namespace gfair::perfbench {

// Host monotonic clock, in nanoseconds.
int64_t HostNowNs();

class SpeedProbe;

using DecisionCounts = std::array<int64_t, sched::kNumDecisionTypes>;

// Spans of a traced repetition, kept in memory and written as JSONL when the
// run ends. A span has a name, host start/end, its parent, the simulated
// instant it belongs to, and — for the timed step of an instant — how many
// decisions of each type that step made.
class SpanLog {
 public:
  // Starts a span now; returns its id for Close and for children.
  int Open(const char* name, int parent, SimTime instant);
  void Close(int id);
  void Add(const char* name, int parent, int64_t start_ns, int64_t end_ns, SimTime instant,
           const DecisionCounts* decisions = nullptr);
  size_t size() const { return spans_.size(); }
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
    SimTime instant;
    bool has_decisions;
    std::array<int32_t, sched::kNumDecisionTypes> decisions;
  };
  std::vector<Span> spans_;
};

struct RunOptions {
  bool traced = false;        // shadow plan/diff, layer counters, spans
  bool check_window = false;  // the workload's shorter --check window
  int tick_threads = 0;       // 0 = the workload's own count
  // The reference stepping of --check: one untimed step per quantum tick,
  // none at arrivals.
  bool step_per_quantum = false;
  SpanLog* spans = nullptr;  // traced: where spans go (null = none kept)
  // Sampled between the window's instants, outside the timed steps; its
  // samples are reset when the window starts. Null = not sampled.
  SpeedProbe* probe = nullptr;
};

struct RepResult {
  uint64_t seed = 0;
  bool traced = false;

  // --- set-up (host) ---
  double setup_s = 0.0;  // repetition start -> measured window
  double trace_gen_ms = 0.0;
  double load_trace_ms = 0.0;
  double warmup_ms = 0.0;

  // --- measured window (host) ---
  double window_sim_h = 0.0;
  int64_t step_ns = 0;  // inside Simulator::RunUntil, both steps of every instant
  int64_t loop_ns = 0;  // the whole stepping loop, harness work included
  std::vector<double> tick_us;  // every quantum-instant step
  std::array<std::vector<double>, 4> kind_us;  // by InstantKind
  std::vector<double> admit_us;  // arrival-instant steps off the tick grid
  int64_t admissions = 0;        // jobs admitted in those steps
  int64_t admit_ns = 0;
  // The speed probe's median sample over the window, in us (0 = not
  // sampled). Every host time above is raw; SpeedScale(probe_us) takes it to
  // the reference speed.
  double probe_us = 0.0;
  size_t probe_samples = 0;

  // --- traced layers ---
  std::vector<double> plan_us, diff_us, rest_us, invariants_us;
  int64_t planned = 0, skipped = 0, diff_ops = 0, shadow_ticks = 0;
  uint64_t events = 0;
  size_t pending_events_max = 0;
  double busy_gpu_frac = 0.0, up_server_frac = 0.0;  // means over ticks
  DecisionCounts decisions{};  // made during the window
  int64_t migrations = 0, steals = 0, trades = 0, orphans_replaced = 0, retries = 0;
  size_t pending_orphans_max = 0;
  int64_t migration_failures = 0, jobs_orphaned = 0, server_failures = 0;
  double migration_bytes_gb = 0.0, migration_bubble_s = 0.0;

  // --- outputs: exact functions of (workload, seed) ---
  uint64_t digest = 0;
  int64_t digested = 0;  // decisions folded entry by entry
  double jain = 0.0;
  double useful_work_k80_h = 0.0;
  double jct_p50_min = 0.0;
  std::vector<double> live_jobs;  // arrived, unfinished; sampled on a fixed grid

  // The process's peak resident set when the repetition ended. Repetitions
  // free everything they allocate, so the first one's is its own.
  double peak_rss_mb = 0.0;

  // --- correctness ---
  int64_t submitted = 0;
  int64_t lost = 0;  // unfinished and not resident on an up server at the end
  int64_t invariant_violations = 0;
  std::string error;  // first problem found; empty when none
};

RepResult RunOnce(const WorkloadSpec& spec, uint64_t seed, const RunOptions& options);

// The steady-load guard: the mean live job count of the window's second half
// is within `tolerance` of the first half's.
bool SteadyLoad(const std::vector<double>& live_jobs, double tolerance = 0.10);

}  // namespace gfair::perfbench

#endif  // GFAIR_BENCH_PERF_PERFBENCH_H_
