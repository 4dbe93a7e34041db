#include "bench/perf/perfbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <thread>

#include "analysis/metrics.h"
#include "bench/perf/speed_probe.h"
#include "common/check.h"
#include "common/stats.h"
#include "exec/fault_injector.h"
#include "sched/cluster_state_view.h"
#include "sched/plan_differ.h"
#include "sched/quantum_planner.h"

namespace gfair::perfbench {

int64_t HostNowNs() {
  const auto now = std::chrono::steady_clock::now();  // gfair-lint: allow(wall-clock) -- host time is what the benchmark measures; it never feeds the simulation
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count();
}

int SpanLog::Open(const char* name, int parent, SimTime instant) {
  const int64_t now = HostNowNs();
  spans_.push_back(Span{name, parent, now, now, instant, false, {}});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Close(int id) { spans_[static_cast<size_t>(id)].end_ns = HostNowNs(); }

void SpanLog::Add(const char* name, int parent, int64_t start_ns, int64_t end_ns,
                  SimTime instant, const DecisionCounts* decisions) {
  Span span{name, parent, start_ns, end_ns, instant, decisions != nullptr, {}};
  if (decisions != nullptr) {
    for (size_t t = 0; t < decisions->size(); ++t) {
      span.decisions[t] = static_cast<int32_t>((*decisions)[t]);
    }
  }
  spans_.push_back(span);
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    return false;
  }
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns - base << ",\"end_ns\":" << s.end_ns - base
        << ",\"sim_ms\":" << s.instant;
    if (s.has_decisions) {
      // Indexed by sched::DecisionType.
      out << ",\"decisions\":[";
      for (size_t t = 0; t < s.decisions.size(); ++t) {
        out << (t > 0 ? "," : "") << s.decisions[t];
      }
      out << "]";
    }
    out << "}\n";
  }
  return out.good();
}

bool SteadyLoad(const std::vector<double>& live_jobs, double tolerance) {
  if (live_jobs.size() < 2) {
    return false;
  }
  const size_t half = live_jobs.size() / 2;
  double first = 0.0;
  double second = 0.0;
  for (size_t i = 0; i < half; ++i) {
    first += live_jobs[i];
    second += live_jobs[live_jobs.size() - 1 - i];
  }
  return first > 0.0 && std::abs(second - first) <= tolerance * first;
}

namespace {

DecisionCounts CountsOf(const sched::DecisionLog& log) {
  DecisionCounts counts{};
  for (size_t t = 0; t < counts.size(); ++t) {
    counts[t] = log.Count(static_cast<sched::DecisionType>(t));
  }
  return counts;
}

DecisionCounts Minus(const DecisionCounts& a, const DecisionCounts& b) {
  DecisionCounts d{};
  for (size_t t = 0; t < d.size(); ++t) {
    d[t] = a[t] - b[t];
  }
  return d;
}

// Invariants are checked at every 60th tick of the window and at the end.
constexpr int64_t kInvariantEvery = 60;

// The checker judges pass monotonicity against its own previous call, which
// a Debug build makes after every tick. Between sparse calls a job can be
// orphaned by a server failure and later re-placed on the same server with
// a fresh pass, which reads as a pass moving backwards. So each sampled
// check is preceded by one whose only use is to move that baseline up to
// the tick before (at the end, to the same instant).
void RefreshInvariantBaseline(sched::GandivaFairScheduler& g) { g.CheckInvariants(); }

// Never more tick threads than the host has cores.
int ClampThreads(int threads) {
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::clamp(threads, 1, cores);
}

// Live-job samples fall on whole quanta: hourly, or 16 per window when the
// window is shorter than 16 hours.
SimDuration GuardPeriod(SimDuration window, SimDuration quantum) {
  const SimDuration sixteenth = std::max(quantum, window / 16 / quantum * quantum);
  return std::min(Hours(1), sixteenth);
}

double LiveJobs(const workload::JobTable& jobs, SimTime now) {
  int64_t live = 0;
  for (const workload::Job* job : jobs.All()) {
    live += job->submit_time <= now && !job->finished() ? 1 : 0;
  }
  return static_cast<double>(live);
}

struct Counters {
  uint64_t events;
  int64_t migrations, steals, trades, orphans_replaced, retries;
  int64_t migration_failures, jobs_orphaned, server_failures;
  double bytes_gb;
  SimDuration bubble_ms;
};

Counters Read(analysis::Experiment& exp) {
  const sched::GandivaFairScheduler& g = *exp.gandiva();
  const exec::Executor& x = exp.exec();
  return Counters{exp.sim().total_events_processed(),
                  g.migrations_started(),
                  g.steals_started(),
                  static_cast<int64_t>(g.executed_trades().size()),
                  g.orphans_replaced(),
                  g.migration_retries_started(),
                  x.migration_failures(),
                  x.jobs_orphaned(),
                  x.server_failures(),
                  x.migration_bytes_gb(),
                  x.migration_bubble_ms()};
}

}  // namespace

RepResult RunOnce(const WorkloadSpec& spec, uint64_t seed, const RunOptions& options) {
  RepResult r;
  r.seed = seed;
  r.traced = options.traced;
  const int64_t rep_start = HostNowNs();
  SpanLog* spans = options.traced ? options.spans : nullptr;
  const int rep_span = spans != nullptr ? spans->Open("rep", -1, 0) : -1;
  const int setup_span = spans != nullptr ? spans->Open("setup", rep_span, 0) : -1;
  const SimTime from = spec.warmup;
  const SimTime horizon = from + (options.check_window ? spec.check_window : spec.window);
  r.window_sim_h = ToHours(horizon - from);

  analysis::ExperimentConfig config;
  config.topology = spec.topology;
  config.seed = seed;
  config.exec.migrate_failure_prob = spec.migrate_failure_prob;
  analysis::Experiment exp(config);
  sched::GandivaFairConfig gf;
  SetTickThreads(&gf, ClampThreads(options.tick_threads > 0 ? options.tick_threads
                                                            : spec.tick_threads));

  const int64_t gen_start = HostNowNs();
  const std::vector<workload::TraceEntry> trace = GenerateInputs(spec, exp, seed, horizon);
  const int64_t gen_end = HostNowNs();
  exp.UseGandivaFair(gf);
  exp.LoadTrace(trace);
  const int64_t load_end = HostNowNs();
  std::unique_ptr<exec::FaultInjector> faults;
  if (spec.down_fraction > 0.0) {
    // Steady-state down fraction f = MTTR / (MTBF + MTTR), per server.
    exec::FaultInjectorConfig fault_config;
    fault_config.server_mttr = Minutes(30);
    fault_config.server_mtbf = static_cast<SimDuration>(
        static_cast<double>(fault_config.server_mttr) * (1.0 - spec.down_fraction) /
        spec.down_fraction);
    fault_config.seed = seed * 9176 + 13;
    faults = std::make_unique<exec::FaultInjector>(exp.sim(), exp.cluster(), exp.exec(),
                                                   fault_config);
    faults->Start();
  }
  const int64_t warmup_start = HostNowNs();
  exp.Run(from);
  const int64_t warmup_end = HostNowNs();
  r.trace_gen_ms = static_cast<double>(gen_end - gen_start) / 1e6;
  r.load_trace_ms = static_cast<double>(load_end - gen_end) / 1e6;
  r.warmup_ms = static_cast<double>(warmup_end - warmup_start) / 1e6;
  r.setup_s = static_cast<double>(warmup_end - rep_start) / 1e9;
  if (spans != nullptr) {
    spans->Add("workload.trace_gen", setup_span, gen_start, gen_end, 0);
    spans->Add("analysis.load_trace", setup_span, gen_end, load_end, 0);
    spans->Add("analysis.warmup", setup_span, warmup_start, warmup_end, from);
    spans->Close(setup_span);
  }

  sched::GandivaFairScheduler& g = *exp.gandiva();
  const sched::DecisionLog& log = g.decisions();
  simkit::Simulator& sim = exp.sim();
  DecisionDigest digest;
  digest.FoldCounts(log);

  const Periods periods = PeriodsFor(gf, exp.cluster());
  std::vector<SimTime> arrivals;
  for (const workload::TraceEntry& entry : trace) {
    r.submitted += entry.arrival <= horizon ? 1 : 0;
    if (!options.step_per_quantum) {
      arrivals.push_back(entry.arrival);
    }
  }
  const std::vector<Instant> instants = BuildInstants(periods, from, horizon, arrivals);
  const SimDuration guard_period = GuardPeriod(horizon - from, periods.quantum);

  const Counters before = Read(exp);
  const DecisionCounts decisions_before = CountsOf(log);
  const double useful_before = analysis::TotalUsefulWork(exp.jobs(), exp.zoo());

  // Shadow planning: a fresh planner and differ over the live state just
  // before each tick. Both are pure, so they time the tick's plan and diff
  // stages without changing what the tick then does.
  const sched::ClusterStateView view(exp.cluster(), g.cluster_index());
  const sched::QuantumPlanner planner(view);
  sched::PlanDiffer differ(exp.jobs(), exp.exec(), view);
  sched::SchedulePlan plan;
  sched::ScheduleDelta delta;

  if (options.probe != nullptr) {
    options.probe->Reset();
  }
  const int window_span = spans != nullptr ? spans->Open("window", rep_span, from) : -1;
  const int64_t loop_start = HostNowNs();
  int64_t ticks = 0;
  double busy_sum = 0.0;
  double up_sum = 0.0;
  const double total_gpus = exp.cluster().total_gpus();
  const double num_servers = exp.cluster().num_servers();
  for (const Instant& instant : instants) {
    const SimTime t = instant.time;
    if (options.step_per_quantum) {
      sim.RunUntil(t);
      if (!digest.Fold(log)) {
        r.error = "decision ring overflowed within one quantum";
        break;
      }
      continue;
    }
    if (options.probe != nullptr) {
      options.probe->MaybeSample();
    }
    const int64_t pre_start = HostNowNs();
    sim.RunUntil(t - 1);
    const int64_t pre_end = HostNowNs();
    r.step_ns += pre_end - pre_start;
    if (!digest.Fold(log)) {
      r.error = "decision ring overflowed in one step";
      break;
    }

    double shadow_us = 0.0;
    if (options.traced && instant.tick()) {
      const int64_t plan_start = HostNowNs();
      planner.PlanTick(&plan);
      const int64_t plan_end = HostNowNs();
      delta.Clear();
      differ.Diff(plan, &delta);
      const int64_t diff_end = HostNowNs();
      const double plan_us = static_cast<double>(plan_end - plan_start) / 1e3;
      const double diff_us = static_cast<double>(diff_end - plan_end) / 1e3;
      shadow_us = plan_us + diff_us;
      r.plan_us.push_back(plan_us);
      r.diff_us.push_back(diff_us);
      r.planned += static_cast<int64_t>(plan.servers.size());
      r.skipped += static_cast<int64_t>(plan.skipped_vt.size());
      r.diff_ops += static_cast<int64_t>(delta.ops.size());
      r.shadow_ticks += 1;
      if (spans != nullptr) {
        spans->Add("sched.plan_shadow", window_span, plan_start, plan_end, t);
        spans->Add("sched.diff_shadow", window_span, plan_end, diff_end, t);
      }
    }

    const DecisionCounts step_before = options.traced ? CountsOf(log) : DecisionCounts{};
    const int64_t step_start = HostNowNs();
    sim.RunUntil(t);
    const int64_t step_end = HostNowNs();
    r.step_ns += step_end - step_start;
    if (!digest.Fold(log)) {
      r.error = "decision ring overflowed in one step";
      break;
    }
    const double us = static_cast<double>(step_end - step_start) / 1e3;
    if (instant.tick()) {
      r.tick_us.push_back(us);
      r.kind_us[static_cast<size_t>(instant.kind)].push_back(us);
      if (instant.kind == InstantKind::kTickPlain && options.traced) {
        r.rest_us.push_back(us - shadow_us);
      }
      ticks += 1;
      if (ticks % kInvariantEvery == kInvariantEvery - 1) {
        RefreshInvariantBaseline(g);
      } else if (ticks % kInvariantEvery == 0) {
        const int64_t check_start = HostNowNs();
        const std::vector<std::string> violations = g.CheckInvariants();
        const int64_t check_end = HostNowNs();
        r.invariants_us.push_back(static_cast<double>(check_end - check_start) / 1e3);
        r.invariant_violations += static_cast<int64_t>(violations.size());
        if (!violations.empty() && r.error.empty()) {
          r.error = violations.front();
        }
        if (spans != nullptr) {
          spans->Add("sched.invariants", window_span, check_start, check_end, t);
        }
      }
      if ((t - from) % guard_period == 0) {
        r.live_jobs.push_back(LiveJobs(exp.jobs(), t));
      }
    } else {
      r.admit_us.push_back(us);
      r.admissions += instant.arrivals;
      r.admit_ns += step_end - step_start;
    }
    if (options.traced) {
      if (instant.tick()) {
        int busy = 0;
        for (const cluster::Server& server : exp.cluster().servers()) {
          busy += server.num_busy();
        }
        busy_sum += busy / total_gpus;
        up_sum += exp.cluster().num_up_servers() / num_servers;
      }
      r.pending_events_max = std::max(r.pending_events_max, sim.pending_events());
      r.pending_orphans_max = std::max(r.pending_orphans_max, g.pending_orphan_count());
      if (spans != nullptr) {
        const DecisionCounts made = Minus(CountsOf(log), step_before);
        spans->Add(instant.tick() ? InstantKindName(instant.kind) : "admit", window_span,
                   step_start, step_end, t, &made);
      }
    }
  }
  r.loop_ns = HostNowNs() - loop_start;
  if (options.probe != nullptr) {
    r.probe_us = options.probe->MedianUs();
    r.probe_samples = options.probe->samples();
  }
  if (spans != nullptr) {
    spans->Close(window_span);
  }
  if (!r.error.empty()) {
    return r;
  }

  const int finish_span = spans != nullptr ? spans->Open("finish", rep_span, horizon) : -1;
  exp.Run(horizon);
  r.digest = digest.value();
  r.digested = digest.folded();
  if (ticks > 0) {
    r.busy_gpu_frac = busy_sum / static_cast<double>(ticks);
    r.up_server_frac = up_sum / static_cast<double>(ticks);
  }
  const Counters after = Read(exp);
  r.events = after.events - before.events;
  r.decisions = Minus(CountsOf(log), decisions_before);
  r.migrations = after.migrations - before.migrations;
  r.steals = after.steals - before.steals;
  r.trades = after.trades - before.trades;
  r.orphans_replaced = after.orphans_replaced - before.orphans_replaced;
  r.retries = after.retries - before.retries;
  r.migration_failures = after.migration_failures - before.migration_failures;
  r.jobs_orphaned = after.jobs_orphaned - before.jobs_orphaned;
  r.server_failures = after.server_failures - before.server_failures;
  r.migration_bytes_gb = after.bytes_gb - before.bytes_gb;
  r.migration_bubble_s = ToSeconds(after.bubble_ms - before.bubble_ms);

  // Simulated outcomes over the window.
  const std::vector<double> ideal = exp.IdealGpuMs(from, horizon);
  std::vector<double> ratios;
  for (const workload::User& user : exp.users().users()) {
    const double share = ideal[user.id.value()];
    if (share > static_cast<double>(kMinute)) {
      ratios.push_back(exp.ledger().GpuMs(user.id, from, horizon) / share);
    }
  }
  r.jain = JainIndex(ratios);
  r.useful_work_k80_h = analysis::TotalUsefulWork(exp.jobs(), exp.zoo()) - useful_before;
  PercentileSampler jct;
  for (const workload::Job* job : exp.jobs().All()) {
    if (job->submit_time >= from && job->finished()) {
      jct.Add(ToMinutes(job->finish_time - job->submit_time));
    }
  }
  r.jct_p50_min = jct.Median();

  // Every job must end finished or resident on an up server. Under faults,
  // a healing run with churn stopped first lets repairs and re-placements
  // drain, as E14 does.
  if (faults != nullptr) {
    faults->Stop();
    exp.Run(horizon + Hours(2));
  }
  for (const workload::Job* job : exp.jobs().All()) {
    if (job->submit_time <= horizon && !job->finished() &&
        (!job->server.valid() || !exp.cluster().server(job->server).up())) {
      r.lost += 1;
    }
  }
  if (r.lost > 0) {
    r.error = std::to_string(r.lost) + " jobs lost or stranded";
  }
  RefreshInvariantBaseline(g);
  const int64_t check_start = HostNowNs();
  const std::vector<std::string> violations = g.CheckInvariants();
  r.invariants_us.push_back(static_cast<double>(HostNowNs() - check_start) / 1e3);
  r.invariant_violations += static_cast<int64_t>(violations.size());
  if (!violations.empty() && r.error.empty()) {
    r.error = violations.front();
  }
  if (spans != nullptr) {
    spans->Close(finish_span);
    spans->Close(rep_span);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  return r;
}

}  // namespace gfair::perfbench
