// gfairsim — command-line cluster-scheduling simulator.
//
// Runs any of the bundled policies over a synthetic multi-user workload or a
// CSV job trace on an arbitrary (possibly heterogeneous) topology, and
// reports per-user fairness and efficiency metrics. With --compare, replays
// the identical workload under every policy and prints a side-by-side
// summary (the E6 methodology, on your own workload).
//
// Examples:
//   gfairsim --topology hetero200 --hours 12
//            --user "vae-lab:1:10:4:VAE=3;SuperResolution=1"
//            --user "vision:2:10:4:ResNeXt-50=2;ResNet-50=1"    (one command line)
//   gfairsim --trace jobs.csv --policy fifo --hours 8
//   gfairsim --user "a:1:5:2" --save-trace out.csv --hours 4
//   gfairsim --compare --hours 8 --gangs philly
//
// Flags:
//   --topology   hetero200 | homog200 | "NxMxGEN[,NxMxGEN...]"   (default hetero200;
//                N and M are decimal integers, M at most 4096 GPUs per
//                server, at most 10^6 GPUs in total)
//   --policy     gandiva_fair | no_trade | plain_stride | fifo | quota |
//                greedy | sjf | las                              (default gandiva_fair)
//   --compare    run ALL policies on the same workload
//   --hours N    simulated horizon                               (default 12)
//   --seed N     RNG seed                                        (default 42)
//   --user SPEC  repeatable; SPEC = name:tickets:interarrival_min:duration_h
//                [:model=w;model=w...]   (models default: whole zoo)
//   --group NAME=user1;user2   assign users to a fair-share group (repeatable)
//   --gangs typical|philly|single   gang-size mix for generated jobs
//   --diurnal A      sinusoidal day/night arrival modulation, 0<=A<1 (default 0)
//   --trace F    load jobs from CSV (see workload/trace_io.h) instead of --user
//   --save-trace F   write the generated trace as CSV and continue (each
//                    user's tickets and group travel with it)
//   --quantum-s N    scheduling quantum                          (default 60)
//   --plan-shards N  shard the tick's plan phase (decisions unchanged)
//   --plan-threads N threads fanning the plan shards             (default 1)
//   --no-trading / --no-balancing / --no-stealing   disable mechanisms
//   --trade-rate borrower|geometric                              (default borrower)
//   --csv PREFIX     also write result tables as PREFIX_*.csv
//   --dump-decisions F   write the scheduler's decision-log tail to a file
//   --snapshot       print the end-of-run cluster snapshot (GandivaFair only)
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/harness.h"
#include "analysis/metrics.h"
#include "common/flags.h"
#include "common/stats.h"
#include "sched/cluster_state_index.h"
#include "sched/policy/allocation_policy.h"
#include "common/table.h"
#include "workload/trace_io.h"

using namespace gfair;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "gfairsim: %s (use --help)\n", message.c_str());
  return 1;
}

// Numeric flags: an absent flag leaves `*out` at its default; a present one
// must parse completely (and, for doubles, be finite) or the read fails.
bool ReadDouble(const ArgParser& args, const std::string& name, double* out) {
  if (!args.Has(name)) {
    return true;
  }
  double value = 0.0;
  if (!args.TryGetDouble(name, &value) || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ReadInt(const ArgParser& args, const std::string& name, int64_t* out) {
  return !args.Has(name) || args.TryGetInt(name, out);
}

// The diagnostic for a numeric flag that failed to read or is out of range.
std::string BadNumber(const ArgParser& args, const std::string& name,
                      const std::string& accepted) {
  return "--" + name + " must be " + accepted + ", got '" + args.GetString(name) + "'";
}

void PrintHelp() {
  std::printf(
      "gfairsim — GPU-cluster fair-share scheduling simulator (GandivaFair)\n\n"
      "  --topology hetero200|homog200|NxMxGEN[,..]  cluster shape\n"
      "  --policy gandiva_fair|no_trade|plain_stride|fifo|quota|greedy|sjf|las\n"
      "  --compare                 run all policies on the same workload\n"
      "  --hours N --seed N --quantum-s N\n"
      "  --user \"name:tickets:interarrival_min:duration_h[:model=w;..]\"  (repeatable)\n"
      "  --group \"team=alice;bob\"  hierarchical fair-share groups (repeatable)\n"
      "  --gangs typical|philly|single --diurnal A\n"
      "  --trace file.csv | --save-trace file.csv\n"
      "  --no-trading --no-balancing --no-stealing --trade-rate borrower|geometric\n"
      "  --alloc-policy greedy|themis|gavel  trade-epoch allocation backend\n"
      "  --plan-shards N --plan-threads N    sharded parallel quantum planning\n"
      "  --csv PREFIX --dump-decisions FILE\n");
}

// A --topology count: the whole text must be a positive decimal integer.
std::optional<int64_t> ParseCount(const std::string& text) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value <= 0) {
    return std::nullopt;
  }
  return value;
}

// Ten times E11's largest cluster (steady_12500, 100k GPUs).
constexpr int64_t kMaxTopologyGpus = 1'000'000;

std::optional<cluster::Topology> ParseTopology(const std::string& spec) {
  if (spec.empty() || spec == "hetero200") {
    return cluster::PaperScaleTopology();
  }
  if (spec == "homog200") {
    return cluster::HomogeneousTopology(25, 8);
  }
  cluster::Topology topology;
  int64_t total_gpus = 0;
  for (const std::string& group : SplitAndTrim(spec, ',')) {
    const auto parts = SplitAndTrim(group, 'x');
    if (parts.size() != 3) {
      return std::nullopt;
    }
    cluster::GpuGeneration gen;
    if (!cluster::ParseGeneration(parts[2], &gen)) {
      return std::nullopt;
    }
    const auto servers = ParseCount(parts[0]);
    const auto gpus = ParseCount(parts[1]);
    // Bounding each count by the cap first keeps the product within int64.
    // Placement orders servers by occupancy exactly only up to
    // kMaxServerGpus GPUs per server; the scheduler CHECKs that bound.
    if (!servers || !gpus || *servers > kMaxTopologyGpus ||
        *gpus > sched::ClusterStateIndex::kMaxServerGpus) {
      return std::nullopt;
    }
    total_gpus += *servers * *gpus;
    if (total_gpus > kMaxTopologyGpus) {
      return std::nullopt;
    }
    topology.groups.push_back(
        cluster::ServerGroup{gen, static_cast<int>(*servers), static_cast<int>(*gpus)});
  }
  if (topology.groups.empty()) {
    return std::nullopt;
  }
  return topology;
}

std::optional<analysis::Policy> ParsePolicy(const std::string& name) {
  if (name.empty() || name == "gandiva_fair") {
    return analysis::Policy::kGandivaFair;
  }
  if (name == "no_trade") {
    return analysis::Policy::kGandivaFairNoTrade;
  }
  if (name == "plain_stride") {
    return analysis::Policy::kPlainStride;
  }
  if (name == "fifo") {
    return analysis::Policy::kFifo;
  }
  if (name == "quota") {
    return analysis::Policy::kStaticQuota;
  }
  if (name == "greedy") {
    return analysis::Policy::kEfficiencyGreedy;
  }
  if (name == "sjf") {
    return analysis::Policy::kSjf;
  }
  if (name == "las") {
    return analysis::Policy::kLas;
  }
  return std::nullopt;
}

// One numeric --user spec field: the whole text must parse, finitely.
std::optional<double> ParseSpecNumber(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

// "name:tickets:interarrival_min:duration_h[:model=w;model=w]"
std::optional<workload::UserWorkloadSpec> ParseUserSpec(const std::string& spec,
                                                        SimTime horizon) {
  const auto parts = SplitAndTrim(spec, ':');
  if (parts.size() < 4 || parts.size() > 5 || parts[0].empty()) {
    return std::nullopt;
  }
  const auto tickets = ParseSpecNumber(parts[1]);
  const auto interarrival_min = ParseSpecNumber(parts[2]);
  const auto duration_h = ParseSpecNumber(parts[3]);
  // Both means must round to at least 1 ms, and the generator's 10x-mean
  // duration clamp must stay far inside int64 milliseconds. The upper
  // bounds are tested first, so the ms conversion never overflows.
  if (!tickets || !interarrival_min || !duration_h || *tickets <= 0 ||
      !(*interarrival_min > 0 && *interarrival_min <= 1e6) ||
      Minutes(*interarrival_min) < 1 || !(*duration_h > 0 && *duration_h <= 1e6) ||
      Hours(*duration_h) < 1) {
    return std::nullopt;
  }
  workload::UserWorkloadSpec user;
  user.name = parts[0];
  user.tickets = *tickets;
  user.mean_interarrival = Minutes(*interarrival_min);
  user.mean_duration_k80 = Hours(*duration_h);
  user.stop = horizon;
  if (parts.size() == 5 && !parts[4].empty()) {
    for (const std::string& model_weight : SplitAndTrim(parts[4], ';')) {
      const auto kv = SplitAndTrim(model_weight, '=');
      if (kv.empty() || kv.size() > 2 || kv[0].empty()) {
        return std::nullopt;
      }
      const std::optional<double> weight = kv.size() > 1 ? ParseSpecNumber(kv[1]) : 1.0;
      if (!weight || *weight <= 0 || !workload::ModelZoo::Default().Contains(kv[0])) {
        return std::nullopt;
      }
      user.model_mix.push_back({kv[0], *weight});
    }
  }
  return user;
}

// The workload, decoupled from any single Experiment so --compare can replay
// it: user definitions in id order plus the job entries referencing those
// ids.
struct Workload {
  struct UserDef {
    std::string name;
    double tickets;
    std::string group;
  };
  std::vector<UserDef> users;
  std::vector<workload::TraceFileEntry> entries;
};

struct RunResult {
  std::string policy;
  std::vector<analysis::UserSummary> summaries;
  std::vector<double> ideal_hours;
  double jain = 1.0;
  double total_gpu_hours = 0.0;
  double utilization = 0.0;
  int jobs_finished = 0;
  analysis::JctStats jct;
  analysis::FinishTimeFairness ftf;
  int64_t migrations = 0;
  size_t trades = 0;
};

RunResult RunOne(analysis::Policy policy, const Workload& workload,
                 const cluster::Topology& topology, uint64_t seed, SimTime horizon,
                 const sched::GandivaFairConfig& sched_config,
                 const std::string& decisions_path = "", bool print_snapshot = false) {
  analysis::ExperimentConfig config;
  config.topology = topology;
  config.seed = seed;
  analysis::Experiment exp(config);
  for (const auto& def : workload.users) {
    if (def.group.empty()) {
      exp.users().Create(def.name, def.tickets);
    } else {
      exp.users().CreateInGroup(def.name, def.group, def.tickets);
    }
  }
  exp.UsePolicy(policy, &sched_config);
  for (const auto& file_entry : workload.entries) {
    exp.SubmitWorkAt(file_entry.entry.arrival, file_entry.entry.user,
                     file_entry.entry.model, file_entry.entry.gang_size,
                     file_entry.entry.total_minibatches, file_entry.weight);
  }
  exp.Run(horizon);

  RunResult result;
  result.policy = analysis::PolicyName(policy);
  result.summaries = analysis::SummarizeUsers(exp.jobs(), exp.users(), exp.ledger(),
                                              exp.zoo(), kTimeZero, horizon);
  const auto ideal = exp.IdealGpuMs(kTimeZero, horizon);
  std::vector<double> ratios;
  for (size_t i = 0; i < result.summaries.size(); ++i) {
    result.ideal_hours.push_back(ideal[i] / kHour);
    if (ideal[i] > 0) {
      ratios.push_back(result.summaries[i].gpu_hours / (ideal[i] / kHour));
    }
    result.total_gpu_hours += result.summaries[i].gpu_hours;
    result.jobs_finished += result.summaries[i].jobs_finished;
  }
  result.jain = JainIndex(ratios);
  result.utilization =
      result.total_gpu_hours / (exp.cluster().total_gpus() * ToHours(horizon));
  result.jct = analysis::ComputeJct(exp.jobs());
  result.ftf = analysis::ComputeFinishTimeFairness(exp.jobs(), exp.zoo(), exp.cluster());
  if (auto* gandiva = exp.gandiva()) {
    result.migrations = gandiva->migrations_started();
    result.trades = gandiva->executed_trades().size();
    if (print_snapshot) {
      gandiva->Snapshot().Print(std::cout);
    }
    if (!decisions_path.empty()) {
      std::ofstream file(decisions_path);
      if (file) {
        const auto& log = gandiva->decisions();
        file << "# decision counts\n";
        for (size_t t = 0; t < sched::kNumDecisionTypes; ++t) {
          const auto type = static_cast<sched::DecisionType>(t);
          file << sched::DecisionTypeName(type) << ": " << log.Count(type) << '\n';
        }
        file << "# most recent decisions\n";
        log.Dump(file, 2048);
      }
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.Has("help") || args.Has("h")) {
    PrintHelp();
    return 0;
  }

  const auto topology = ParseTopology(args.GetString("topology"));
  if (!topology) {
    return Fail("bad --topology '" + args.GetString("topology") + "'");
  }
  const auto policy = ParsePolicy(args.GetString("policy"));
  if (!policy) {
    return Fail("unknown --policy");
  }
  const bool compare = args.GetBool("compare");
  double hours = 12.0;
  if (!ReadDouble(args, "hours", &hours) || hours <= 0 || hours > 24 * 365) {
    return Fail(BadNumber(args, "hours", "a number in (0, 8760]"));
  }
  const SimTime horizon = Hours(hours);
  int64_t seed_flag = 42;
  if (!ReadInt(args, "seed", &seed_flag)) {
    return Fail(BadNumber(args, "seed", "an integer"));
  }
  const uint64_t seed = static_cast<uint64_t>(seed_flag);

  workload::GangSizeDist gangs = workload::GangSizeDist::Typical();
  const std::string gang_mix = args.GetString("gangs", "typical");
  if (gang_mix == "philly") {
    gangs = workload::GangSizeDist::PhillyLike();
  } else if (gang_mix == "single") {
    gangs = workload::GangSizeDist::SingleGpuOnly();
  } else if (gang_mix != "typical") {
    return Fail("bad --gangs");
  }

  // --- build the workload, decoupled from any experiment ---
  Workload workload;
  const auto& zoo = workload::ModelZoo::Default();
  if (args.Has("trace")) {
    workload::UserTable scratch;
    std::string error;
    if (!workload::ReadTraceFile(args.GetString("trace"), zoo, &scratch,
                                 &workload.entries, &error)) {
      return Fail("trace: " + error);
    }
    for (const auto& user : scratch.users()) {
      workload.users.push_back({user.name, user.tickets.raw(), user.group});
    }
  } else {
    double diurnal = 0.0;
    if (!ReadDouble(args, "diurnal", &diurnal) || diurnal < 0.0 || diurnal >= 1.0) {
      return Fail(BadNumber(args, "diurnal", "a number in [0, 1)"));
    }
    std::vector<workload::UserWorkloadSpec> specs;
    for (const std::string& spec : args.GetAll("user")) {
      auto parsed = ParseUserSpec(spec, horizon);
      if (!parsed) {
        return Fail("bad --user spec '" + spec + "'");
      }
      // A name is the user's identity in a saved trace, in --group and in
      // the output table, so two users may not share one.
      for (const auto& earlier : specs) {
        if (earlier.name == parsed->name) {
          return Fail("duplicate --user name '" + parsed->name + "'");
        }
      }
      parsed->gang_sizes = gangs;
      parsed->diurnal_amplitude = diurnal;
      specs.push_back(std::move(*parsed));
    }
    if (specs.empty()) {
      for (int u = 0; u < 4; ++u) {
        workload::UserWorkloadSpec spec;
        spec.name = "user" + std::to_string(u);
        spec.stop = horizon;
        spec.gang_sizes = gangs;
        spec.diurnal_amplitude = diurnal;
        specs.push_back(std::move(spec));
      }
    }
    std::vector<UserId> ids;
    for (const auto& spec : specs) {
      workload.users.push_back({spec.name, spec.tickets.raw(), ""});
      ids.push_back(UserId(static_cast<uint32_t>(ids.size())));
    }
    workload::TraceGenerator generator(zoo, seed);
    for (const auto& entry : generator.Generate(specs, ids)) {
      workload.entries.push_back(workload::TraceFileEntry{entry, 1.0});
    }
  }
  if (workload.entries.empty()) {
    return Fail("workload is empty");
  }
  // Gangs must fit on a single server of some pool.
  int max_server_gpus = 0;
  for (const auto& group : topology->groups) {
    max_server_gpus = std::max(max_server_gpus, group.gpus_per_server);
  }
  for (const auto& file_entry : workload.entries) {
    if (file_entry.entry.gang_size > max_server_gpus) {
      return Fail("job with gang_size " + std::to_string(file_entry.entry.gang_size) +
                  " cannot fit any server (max " + std::to_string(max_server_gpus) +
                  " GPUs); enlarge servers or restrict --gangs");
    }
    const auto& model = zoo.Get(file_entry.entry.model);
    bool feasible = false;
    for (const auto& group : topology->groups) {
      if (model.FitsGeneration(group.generation) &&
          group.gpus_per_server >= file_entry.entry.gang_size) {
        feasible = true;
        break;
      }
    }
    if (!feasible) {
      return Fail("model '" + model.name + "' does not fit any pool's GPU memory " +
                  "on this topology");
    }
  }

  // --group team=alice;bob
  for (const std::string& group_spec : args.GetAll("group")) {
    const auto kv = SplitAndTrim(group_spec, '=');
    if (kv.size() != 2 || kv[0].empty()) {
      return Fail("bad --group spec '" + group_spec + "'");
    }
    for (const std::string& member : SplitAndTrim(kv[1], ';')) {
      bool found = false;
      for (auto& def : workload.users) {
        if (def.name == member) {
          def.group = kv[0];
          found = true;
        }
      }
      if (!found) {
        return Fail("--group member '" + member + "' is not a user");
      }
    }
  }

  if (args.Has("save-trace")) {
    workload::UserTable scratch;
    for (const auto& def : workload.users) {
      if (def.group.empty()) {
        scratch.Create(def.name, def.tickets);
      } else {
        scratch.CreateInGroup(def.name, def.group, def.tickets);
      }
    }
    if (!workload::WriteTraceFile(args.GetString("save-trace"), workload.entries,
                                  scratch, zoo)) {
      return Fail("cannot write --save-trace file");
    }
    std::printf("wrote %zu jobs to %s\n", workload.entries.size(),
                args.GetString("save-trace").c_str());
  }

  // --- policy configuration ---
  sched::GandivaFairConfig sched_config;
  // At least 1 ms once rounded to the simulator's clock, at most one day.
  double quantum_s = 60.0;
  if (!ReadDouble(args, "quantum-s", &quantum_s) || quantum_s <= 0.0 ||
      quantum_s > ToSeconds(kDay) || Seconds(quantum_s) < kMillisecond) {
    return Fail(BadNumber(args, "quantum-s",
                          "a number of seconds from 0.001 to 86400 (rounded to the ms)"));
  }
  sched_config.quantum = Seconds(quantum_s);
  sched_config.enable_trading = !args.GetBool("no-trading");
  sched_config.enable_load_balancing = !args.GetBool("no-balancing");
  sched_config.enable_work_stealing = !args.GetBool("no-stealing");
  if (args.GetString("trade-rate") == "geometric") {
    sched_config.trade.rate_rule = sched::TradeConfig::RateRule::kGeometricMean;
  }
  // --policy names the scheduler; --alloc-policy picks which allocation
  // backend GandivaFair's trade epochs run (registry-validated).
  const std::string alloc_policy = args.GetString("alloc-policy", "greedy");
  std::string alloc_error;
  if (!sched::ValidateAllocationPolicyName(alloc_policy, &alloc_error)) {
    return Fail(alloc_error);
  }
  sched_config.allocation_policy = alloc_policy;
  // --plan-shards / --plan-threads shard the quantum tick's plan phase
  // (see GandivaFairConfig: decisions are bit-identical for any values).
  // Validated here so a typo fails fast with the accepted range.
  int64_t plan_shards = 1;
  if (!ReadInt(args, "plan-shards", &plan_shards) || plan_shards < 1 ||
      plan_shards > 65536) {
    return Fail(BadNumber(args, "plan-shards", "an integer in [1, 65536]"));
  }
  int64_t plan_threads = 1;
  if (!ReadInt(args, "plan-threads", &plan_threads) || plan_threads < 1 ||
      plan_threads > 512) {
    return Fail(BadNumber(args, "plan-threads", "an integer in [1, 512]"));
  }
  sched_config.plan_shards = static_cast<int>(plan_shards);
  sched_config.plan_threads = static_cast<int>(plan_threads);
  const std::string decisions_path = args.GetString("dump-decisions");
  const bool want_snapshot = args.GetBool("snapshot");

  const auto unconsumed = args.UnconsumedFlags();
  if (!unconsumed.empty()) {
    return Fail("unknown flag --" + unconsumed.front());
  }

  std::printf("gfairsim: %s, %zu jobs from %zu users, %.1f h horizon\n",
              topology->Describe().c_str(), workload.entries.size(),
              workload.users.size(), hours);

  if (compare) {
    Table summary({"policy", "Jain", "total GPU-h", "utilization", "jobs done",
                   "JCT p50/p90 (min)", "mean FTF rho", "migrations", "trades"});
    for (analysis::Policy each :
         {analysis::Policy::kGandivaFair, analysis::Policy::kGandivaFairNoTrade,
          analysis::Policy::kFifo, analysis::Policy::kStaticQuota,
          analysis::Policy::kEfficiencyGreedy, analysis::Policy::kSjf,
          analysis::Policy::kLas}) {
      const RunResult result =
          RunOne(each, workload, *topology, seed, horizon, sched_config);
      summary.BeginRow()
          .Cell(result.policy)
          .Cell(result.jain, 4)
          .Cell(result.total_gpu_hours, 0)
          .Cell(result.utilization, 3)
          .Cell(static_cast<int64_t>(result.jobs_finished))
          .Cell(FormatDouble(result.jct.p50, 0) + "/" + FormatDouble(result.jct.p90, 0))
          .Cell(result.ftf.mean_rho, 2)
          .Cell(result.migrations)
          .Cell(static_cast<int64_t>(result.trades));
    }
    summary.Print(std::cout, "policy comparison (identical workload)");
    if (args.Has("csv")) {
      summary.WriteCsv(args.GetString("csv") + "_compare.csv");
    }
    return 0;
  }

  const RunResult result = RunOne(*policy, workload, *topology, seed, horizon,
                                  sched_config, decisions_path, want_snapshot);
  Table per_user({"user", "tickets", "GPU-h", "ideal GPU-h", "achieved/ideal",
                  "useful work", "jobs", "done", "mean JCT (min)"});
  for (size_t i = 0; i < result.summaries.size(); ++i) {
    const auto& s = result.summaries[i];
    const double ideal = result.ideal_hours[i];
    per_user.BeginRow()
        .Cell(s.name)
        .Cell(s.tickets, 1)
        .Cell(s.gpu_hours, 1)
        .Cell(ideal, 1)
        .Cell(ideal > 0 ? s.gpu_hours / ideal : 1.0, 3)
        .Cell(s.useful_k80_gpu_hours, 1)
        .Cell(static_cast<int64_t>(s.jobs_total))
        .Cell(static_cast<int64_t>(s.jobs_finished))
        .Cell(s.mean_jct_minutes, 1);
  }
  per_user.Print(std::cout, std::string("per-user results — ") + result.policy);
  std::cout << '\n';

  Table summary({"metric", "value"});
  summary.AddRow({"Jain index (achieved/ideal)", FormatDouble(result.jain, 4)});
  summary.AddRow({"total GPU-hours", FormatDouble(result.total_gpu_hours, 1)});
  summary.AddRow({"cluster utilization", FormatDouble(result.utilization, 3)});
  summary.AddRow({"jobs finished", std::to_string(result.jobs_finished)});
  summary.AddRow({"JCT p50/p90/p99 (min)", FormatDouble(result.jct.p50, 0) + "/" +
                                               FormatDouble(result.jct.p90, 0) + "/" +
                                               FormatDouble(result.jct.p99, 0)});
  summary.AddRow({"mean finish-time-fairness rho", FormatDouble(result.ftf.mean_rho, 2)});
  summary.AddRow({"migrations", std::to_string(result.migrations)});
  summary.AddRow({"trades", std::to_string(result.trades)});
  summary.Print(std::cout, "summary");

  if (args.Has("csv")) {
    const std::string prefix = args.GetString("csv");
    per_user.WriteCsv(prefix + "_users.csv");
    summary.WriteCsv(prefix + "_summary.csv");
  }
  return 0;
}
