// gfair_perfbench — the perfbench workload runner.
//
//   gfair_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//       Repeats the workload's set-up and measured window, one repetition
//       after another, for about S seconds of host time (longer only while a
//       reported percentile still lacks samples), then prints every metric
//       by name and unit and, as the last line, one JSON object:
//       {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
//       Every host time is scaled to the reference speed by the speed probe
//       sampled during its repetition (speed_probe.h).
//       The first repetition runs on seed N, later ones on seeds derived
//       from N; timings pool over all of them, simulated outcomes come from
//       seed N alone. --trace 0 reports the end-to-end metrics. --trace 1
//       follows each untraced repetition with a traced one on the same seed,
//       reports the per-layer metrics and the tracing overhead, and writes
//       the first traced repetition's spans to FILE as JSONL.
//   gfair_perfbench --check [--workload NAME] [--seed N]
//       Runs every workload (or one) over its short --check window and
//       verifies the stepping, tracing and threading leave the decision
//       stream unchanged, the invariants hold, nothing is lost, and the load
//       is steady. Exits 0 only when every check passes.
//   gfair_perfbench --list
//       Prints the workload names.
#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/perf/perf_helpers.h"
#include "bench/perf/perfbench.h"
#include "bench/perf/speed_probe.h"
#include "bench/perf/workloads.h"
#include "common/flags.h"
#include "common/stats.h"

using namespace gfair;
using namespace gfair::perfbench;

namespace {

// No run may come near the 180 s a workload process is allowed.
constexpr double kHardCapSeconds = 120.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  // what the value was computed from (0 = a count)
};

double Median(const std::vector<double>& values) {
  PercentileSampler sampler;
  for (double v : values) {
    sampler.Add(v);
  }
  return sampler.Median();
}

// A repetition's factor from raw host time to the reference speed.
double Scale(const RepResult& rep) { return SpeedScale(rep.probe_us); }

// Host-time samples of every repetition, each at the reference speed.
std::vector<double> Pooled(const std::vector<RepResult>& reps,
                           std::vector<double> RepResult::*field) {
  std::vector<double> all;
  for (const RepResult& rep : reps) {
    for (double us : rep.*field) {
      all.push_back(us * Scale(rep));
    }
  }
  return all;
}

std::vector<double> PooledKind(const std::vector<RepResult>& reps, InstantKind kind) {
  std::vector<double> all;
  for (const RepResult& rep : reps) {
    for (double us : rep.kind_us[static_cast<size_t>(kind)]) {
      all.push_back(us * Scale(rep));
    }
  }
  return all;
}

template <typename F>
std::vector<double> PerRep(const std::vector<RepResult>& reps, F f) {
  std::vector<double> values;
  for (const RepResult& rep : reps) {
    values.push_back(f(rep));
  }
  return values;
}

// Appends a percentile only when it meets the >= 10-samples-beyond rule.
void AddPercentile(std::vector<Metric>* out, const std::string& name,
                   const std::vector<double>& samples, double p) {
  const std::optional<double> value = PercentileWithTail(samples, p);
  if (value.has_value()) {
    out->push_back(Metric{name, *value, "us", samples.size()});
  }
}

// A per-layer median in us: 0 when the layer did no work on this workload.
Metric LayerMedian(const std::string& name, const std::vector<double>& samples) {
  return Metric{name, samples.empty() ? 0.0 : Median(samples), "us", samples.size()};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double RawHostMsPerSimHour(const RepResult& rep) {
  return static_cast<double>(rep.step_ns) / 1e6 / rep.window_sim_h;
}

double HostMsPerSimHour(const RepResult& rep) { return RawHostMsPerSimHour(rep) * Scale(rep); }

bool EnoughEndToEndSamples(const std::vector<RepResult>& reps) {
  return PercentileWithTail(Pooled(reps, &RepResult::tick_us), 95.0).has_value() &&
         PercentileWithTail(Pooled(reps, &RepResult::admit_us), 95.0).has_value();
}

std::vector<Metric> EndToEnd(const std::vector<RepResult>& reps) {
  std::vector<Metric> m;
  const RepResult& first = reps.front();
  m.push_back({"setup_s",
               Median(PerRep(reps, [](const RepResult& r) { return r.setup_s * Scale(r); })),
               "s", reps.size()});
  m.push_back({"host_ms_per_sim_h", Median(PerRep(reps, HostMsPerSimHour)), "ms", reps.size()});
  // The median is over plain ticks, the p95 over every tick. All ticks
  // together are bimodal where balance passes are slow (admit10k: one tick
  // in five), and a median between the modes moves with their mix.
  AddPercentile(&m, "tick_us_p50", PooledKind(reps, InstantKind::kTickPlain), 50.0);
  AddPercentile(&m, "tick_us_p95", Pooled(reps, &RepResult::tick_us), 95.0);
  int64_t admissions = 0;
  double admit_s = 0.0;
  for (const RepResult& rep : reps) {
    admissions += rep.admissions;
    admit_s += static_cast<double>(rep.admit_ns) / 1e9 * Scale(rep);
  }
  const std::vector<double> admits = Pooled(reps, &RepResult::admit_us);
  m.push_back({"admit_per_s", Ratio(static_cast<double>(admissions), admit_s), "1/s",
               admits.size()});
  AddPercentile(&m, "admit_us_p50", admits, 50.0);
  AddPercentile(&m, "admit_us_p95", admits, 95.0);
  m.push_back({"peak_rss_mb", first.peak_rss_mb, "MB", 1});
  m.push_back({"jain", first.jain, "index", 1});
  m.push_back({"useful_work_k80_h", first.useful_work_k80_h, "K80-GPU-h", 1});
  m.push_back({"jct_p50_min", first.jct_p50_min, "min", 1});
  return m;
}

std::string MetricName(sched::DecisionType type) {
  std::string name = sched::DecisionTypeName(type);
  std::replace(name.begin(), name.end(), '/', '_');
  return "sched.decisions." + name + "_per_sim_h";
}

std::vector<Metric> PerLayer(const std::vector<RepResult>& plain,
                             const std::vector<RepResult>& traced) {
  std::vector<Metric> m;
  const RepResult& first = traced.front();
  const auto median_of = [&](auto f) { return Median(PerRep(traced, f)); };
  const double hours = first.window_sim_h;
  const auto count = [](const std::string& name, double value) {
    return Metric{name, value, "count", 0};
  };

  m.push_back({"workload.trace_gen_ms",
               median_of([](const RepResult& r) { return r.trace_gen_ms * Scale(r); }), "ms",
               traced.size()});
  m.push_back({"analysis.load_trace_ms",
               median_of([](const RepResult& r) { return r.load_trace_ms * Scale(r); }), "ms",
               traced.size()});
  m.push_back({"analysis.warmup_ms",
               median_of([](const RepResult& r) { return r.warmup_ms * Scale(r); }), "ms",
               traced.size()});

  m.push_back({"simkit.events_per_sim_h", static_cast<double>(first.events) / hours, "1/h", 0});
  m.push_back({"simkit.host_ns_per_event",
               Median(PerRep(plain,
                             [](const RepResult& r) {
                               return Ratio(static_cast<double>(r.step_ns) * Scale(r),
                                            static_cast<double>(r.events));
                             })),
               "ns", plain.size()});
  m.push_back(count("simkit.pending_events_max", static_cast<double>(first.pending_events_max)));

  m.push_back(LayerMedian("sched.tick_plain_us_p50", PooledKind(traced, InstantKind::kTickPlain)));
  m.push_back(LayerMedian("sched.tick_rest_us_p50", Pooled(traced, &RepResult::rest_us)));
  m.push_back(LayerMedian("sched.plan_shadow_us_p50", Pooled(traced, &RepResult::plan_us)));
  const double shadow_ticks = static_cast<double>(first.shadow_ticks);
  m.push_back({"sched.plan_planned_per_tick",
               Ratio(static_cast<double>(first.planned), shadow_ticks), "servers", 0});
  m.push_back({"sched.plan_skip_frac",
               Ratio(static_cast<double>(first.skipped),
                     static_cast<double>(first.planned + first.skipped)),
               "frac", 0});
  m.push_back(LayerMedian("sched.diff_shadow_us_p50", Pooled(traced, &RepResult::diff_us)));
  m.push_back({"sched.diff_ops_per_tick",
               Ratio(static_cast<double>(first.diff_ops), shadow_ticks), "ops", 0});
  m.push_back(
      LayerMedian("sched.tick_balance_us_p50", PooledKind(traced, InstantKind::kTickBalance)));
  m.push_back(LayerMedian("sched.tick_trade_us_p50", PooledKind(traced, InstantKind::kTickTrade)));
  for (size_t t = 0; t < sched::kNumDecisionTypes; ++t) {
    m.push_back({MetricName(static_cast<sched::DecisionType>(t)),
                 static_cast<double>(first.decisions[t]) / hours, "1/h", 0});
  }
  m.push_back(count("sched.migrations_started", static_cast<double>(first.migrations)));
  m.push_back(count("sched.steals_started", static_cast<double>(first.steals)));
  m.push_back(count("sched.trades_executed", static_cast<double>(first.trades)));
  m.push_back(count("sched.orphans_replaced", static_cast<double>(first.orphans_replaced)));
  m.push_back(count("sched.migration_retries", static_cast<double>(first.retries)));
  m.push_back(count("sched.pending_orphans_max", static_cast<double>(first.pending_orphans_max)));
  m.push_back(LayerMedian("sched.invariants_us_p50", Pooled(traced, &RepResult::invariants_us)));
  m.push_back(count("sched.invariant_violations",
                    static_cast<double>(first.invariant_violations)));

  m.push_back({"exec.migration_fail_frac",
               Ratio(static_cast<double>(first.migration_failures),
                     static_cast<double>(first.migrations)),
               "frac", 0});
  m.push_back({"exec.migration_bytes_gb", first.migration_bytes_gb, "GB", 0});
  m.push_back({"exec.migration_bubble_s", first.migration_bubble_s, "s", 0});
  m.push_back(count("exec.jobs_orphaned", static_cast<double>(first.jobs_orphaned)));
  m.push_back(count("exec.server_failures", static_cast<double>(first.server_failures)));

  m.push_back({"cluster.busy_gpu_frac", first.busy_gpu_frac, "frac", 0});
  m.push_back({"cluster.up_server_frac", first.up_server_frac, "frac", 0});

  // Whole stepping loop, harness work included, traced against untraced.
  const auto loop_ms = [](const RepResult& r) {
    return static_cast<double>(r.loop_ns) / 1e6 / r.window_sim_h * Scale(r);
  };
  m.push_back({"trace.overhead_frac",
               Median(PerRep(traced, loop_ms)) / Median(PerRep(plain, loop_ms)) - 1.0, "frac",
               traced.size()});

  // The machine's own speed while the layers were timed, unscaled.
  std::vector<RepResult> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  m.push_back({"host.probe_us", Median(PerRep(all, [](const RepResult& r) { return r.probe_us; })),
               "us", all.size()});
  return m;
}

std::string FormatValue(double value) {
  std::ostringstream os;
  os << std::setprecision(12) << value;
  return os.str();
}

// Outputs that must match across repetitions of one (workload, seed).
bool SameOutputs(const RepResult& a, const RepResult& b) {
  return a.digest == b.digest && a.digested == b.digested && a.jain == b.jain &&  // gfair-lint: allow(float-eq) -- repetitions must agree bit for bit
         a.useful_work_k80_h == b.useful_work_k80_h && a.jct_p50_min == b.jct_p50_min;  // gfair-lint: allow(float-eq) -- repetitions must agree bit for bit
}

// The seed of a run's `input`-th workload instance: the run's own seed
// first, which the simulated outputs are reported from, then seeds derived
// from it, so one run averages its timings over several inputs.
uint64_t InputSeed(uint64_t seed, int input) {
  return seed + static_cast<uint64_t>(input) * 0x9E3779B97F4A7C15ULL;
}

int RunWorkload(const WorkloadSpec& spec, uint64_t seed, double seconds, bool traced,
                const std::string& spans_path) {
  const int64_t start = HostNowNs();
  std::vector<RepResult> plain;
  std::vector<RepResult> traced_reps;
  SpanLog spans;
  SpeedProbe probe;
  int64_t failed = 0;
  for (int rep = 0;; ++rep) {
    // A traced run pairs each untraced repetition with a traced one on the
    // same input; the pair must make the same decisions.
    const bool trace_this = traced && rep % 2 == 1;
    RunOptions options;
    options.traced = trace_this;
    options.spans = trace_this && traced_reps.empty() ? &spans : nullptr;
    options.probe = &probe;
    const int64_t rep_start = HostNowNs();
    RepResult result = RunOnce(spec, InputSeed(seed, traced ? rep / 2 : rep), options);
    const double rep_s = static_cast<double>(HostNowNs() - rep_start) / 1e9;
    if (trace_this && !SameOutputs(result, plain.back())) {
      std::cerr << "perfbench: " << spec.name << ": tracing changed the outputs\n";
      failed += 1;
    }
    const bool ok = result.error.empty();
    (trace_this ? traced_reps : plain).push_back(std::move(result));
    const double elapsed = static_cast<double>(HostNowNs() - start) / 1e9;
    if (!ok || elapsed + rep_s > kHardCapSeconds) {
      break;
    }
    const bool complete = traced ? !traced_reps.empty() : EnoughEndToEndSamples(plain);
    if (complete && elapsed + rep_s > seconds) {
      break;
    }
  }

  std::vector<RepResult> all = plain;
  all.insert(all.end(), traced_reps.begin(), traced_reps.end());
  int64_t attempted = 0;
  for (const RepResult& rep : all) {
    attempted += rep.submitted;
    const int64_t counted = rep.lost + rep.invariant_violations;
    failed += counted;
    if (!rep.error.empty()) {
      std::cerr << "perfbench: " << spec.name << ": " << rep.error << "\n";
      failed += counted == 0 ? 1 : 0;  // e.g. an overflowed decision ring
    }
  }
  bool correct = failed == 0;
  std::vector<Metric> metrics;
  if (correct) {
    metrics = traced ? PerLayer(plain, traced_reps) : EndToEnd(plain);
  }
  if (traced && !spans_path.empty() && !spans.WriteJsonl(spans_path)) {
    std::cerr << "perfbench: cannot write spans to " << spans_path << "\n";
    correct = false;
  }

  std::cout << "workload " << spec.name << "  seed " << seed << "  repetitions "
            << plain.size() << " untraced + " << traced_reps.size() << " traced"
            << "  digest " << std::hex << all.front().digest << std::dec << " ("
            << all.front().digested << " decisions)\n";
  for (const RepResult& rep : all) {
    PercentileSampler ticks;
    for (double us : rep.tick_us) {
      ticks.Add(us);
    }
    std::cout << "  repetition" << (rep.traced ? " (traced)" : "") << ": seed " << rep.seed
              << ", raw host times: setup " << FormatValue(rep.setup_s) << " s, window "
              << FormatValue(RawHostMsPerSimHour(rep)) << " ms per simulated hour, tick p50 "
              << FormatValue(ticks.Percentile(50.0)) << " us, p95 "
              << FormatValue(ticks.Percentile(95.0)) << " us; probe "
              << FormatValue(rep.probe_us) << " us (n=" << rep.probe_samples << "), scale "
              << FormatValue(Scale(rep)) << "\n";
  }
  for (const Metric& metric : metrics) {
    std::cout << "  " << std::left << std::setw(44) << metric.name << std::right
              << std::setw(18) << FormatValue(metric.value) << " " << metric.unit;
    if (metric.samples > 0) {
      std::cout << "  (n=" << metric.samples << ")";
    }
    std::cout << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << FormatValue(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
              << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

bool Report(bool ok, const std::string& workload, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << workload << ": " << what << "\n";
  return ok;
}

int RunCheck(const std::vector<const WorkloadSpec*>& specs, uint64_t seed) {
  bool all_ok = true;
  for (const WorkloadSpec* spec : specs) {
    const std::string& name = spec->name;
    RunOptions options;
    options.check_window = true;
    const RepResult stepped = RunOnce(*spec, seed, options);
    all_ok = Report(stepped.error.empty(), name,
                    stepped.error.empty() ? "ran to the end" : stepped.error) && all_ok;
    all_ok = Report(stepped.invariant_violations == 0, name,
                    "invariants hold at sampled ticks and at the end") && all_ok;
    all_ok = Report(stepped.lost == 0, name,
                    "every job finished or resident on an up server at the end") && all_ok;
    std::ostringstream live;
    live << "live jobs within 10% between the window's halves (";
    for (size_t i = 0; i < stepped.live_jobs.size(); ++i) {
      live << (i > 0 ? " " : "") << stepped.live_jobs[i];
    }
    live << ")";
    all_ok = Report(SteadyLoad(stepped.live_jobs), name, live.str()) && all_ok;

    RunOptions reference_options = options;
    reference_options.step_per_quantum = true;
    const RepResult reference = RunOnce(*spec, seed, reference_options);
    all_ok = Report(reference.error.empty() && reference.digest == stepped.digest &&
                        reference.digested == stepped.digested,
                    name, "stepped digest equals the once-per-quantum reference") && all_ok;

    RunOptions traced_options = options;
    traced_options.traced = true;
    const RepResult traced = RunOnce(*spec, seed, traced_options);
    all_ok = Report(traced.error.empty() && SameOutputs(traced, stepped), name,
                    "traced digest and outputs equal the untraced run's") && all_ok;

    if (spec->tick_threads > 1) {
      RunOptions serial_options = options;
      serial_options.tick_threads = 1;
      const RepResult serial = RunOnce(*spec, seed, serial_options);
      all_ok = Report(serial.error.empty() && SameOutputs(serial, stepped), name,
                      "digest at " + std::to_string(spec->tick_threads) +
                          " tick threads equals 1 thread, 1 shard") && all_ok;
    }
  }
  std::cout << (all_ok ? "perfbench check: PASS" : "perfbench check: FAIL") << std::endl;
  return all_ok ? 0 : 1;
}

int Usage(const std::string& problem) {
  std::cerr << "gfair_perfbench: " << problem << "\n"
            << "usage: gfair_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\n"
            << "       gfair_perfbench --check [--workload NAME] [--seed N]\n"
            << "       gfair_perfbench --list\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.Has("list")) {
    for (const WorkloadSpec& spec : Workloads()) {
      std::cout << spec.name << "\n";
    }
    return 0;
  }
  int64_t seed = 1;
  if (args.Has("seed") && (!args.TryGetInt("seed", &seed) || seed < 0)) {
    return Usage("--seed takes a non-negative integer");
  }
  std::vector<const WorkloadSpec*> specs;
  const std::string name = args.GetString("workload");
  if (!name.empty()) {
    const WorkloadSpec* spec = FindWorkload(name);
    if (spec == nullptr) {
      return Usage("unknown workload '" + name + "'");
    }
    specs.push_back(spec);
  }

  if (args.Has("check")) {
    if (specs.empty()) {
      for (const WorkloadSpec& spec : Workloads()) {
        specs.push_back(&spec);
      }
    }
    return RunCheck(specs, static_cast<uint64_t>(seed));
  }

  if (specs.empty()) {
    return Usage("--workload is required");
  }
  double seconds = 10.0;
  if (args.Has("seconds") && (!args.TryGetDouble("seconds", &seconds) || seconds <= 0.0)) {
    return Usage("--seconds takes a positive number");
  }
  int64_t trace = 0;
  if (args.Has("trace") && (!args.TryGetInt("trace", &trace) || (trace != 0 && trace != 1))) {
    return Usage("--trace takes 0 or 1");
  }
  const std::string spans_path = args.GetString("spans");
  if (!args.UnconsumedFlags().empty()) {
    return Usage("unknown flag --" + args.UnconsumedFlags().front());
  }
  return RunWorkload(*specs.front(), static_cast<uint64_t>(seed), seconds, trace == 1,
                     spans_path);
}
