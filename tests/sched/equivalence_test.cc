// Decision-log equivalence: the refactored subsystem-based scheduler must
// make exactly the decisions the pre-refactor monolith made. Both
// implementations run in-process on the same fixed-seed scenarios and their
// DecisionLog streams are compared entry by entry (plus lifetime counters
// and job completion times). Running the frozen oracle live — instead of
// golden files — keeps the comparison robust; and since the determinism fix
// both sides now iterate their residency hash sets in sorted order on every
// decision path (see common/sorted.h), so the streams are additionally
// stable across platforms and stdlib hash implementations.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "analysis/harness.h"
#include "bench/scenarios.h"
#include "legacy_gandiva_fair.h"
#include "sched/gandiva_fair.h"
#include "workload/trace_gen.h"

namespace gfair::sched {
namespace {

using analysis::Experiment;
using analysis::ExperimentConfig;

struct RunResult {
  std::vector<Decision> entries;
  std::array<int64_t, kNumDecisionTypes> counts{};
  int64_t migrations = 0;
  int64_t steals = 0;
  std::vector<SimTime> finish_times;  // indexed by job id; kTimeZero if unfinished
};

// Runs `scenario(exp, sched)` with a scheduler of type SchedT and collects
// its decision stream. The scenario must be fully deterministic.
template <typename SchedT, typename Scenario>
RunResult RunWith(const ExperimentConfig& config, const GandivaFairConfig& gf_config,
                  Scenario&& scenario) {
  Experiment exp(config);
  SchedT* sched = nullptr;
  exp.UseCustomScheduler([&](const SchedulerEnv& env) {
    auto owned = std::make_unique<SchedT>(env, gf_config);
    sched = owned.get();
    return owned;
  });
  scenario(exp, *sched);

  RunResult result;
  result.entries.assign(sched->decisions().entries().begin(),
                        sched->decisions().entries().end());
  for (size_t t = 0; t < kNumDecisionTypes; ++t) {
    result.counts[t] = sched->decisions().Count(static_cast<DecisionType>(t));
  }
  result.migrations = sched->migrations_started();
  result.steals = sched->steals_started();
  for (const auto* job : exp.jobs().All()) {
    result.finish_times.push_back(job->finished() ? job->finish_time : kTimeZero);
  }
  return result;
}

void ExpectIdentical(const RunResult& legacy, const RunResult& refactored) {
  for (size_t t = 0; t < kNumDecisionTypes; ++t) {
    EXPECT_EQ(legacy.counts[t], refactored.counts[t])
        << "decision count diverged for "
        << DecisionTypeName(static_cast<DecisionType>(t));
  }
  EXPECT_EQ(legacy.migrations, refactored.migrations);
  EXPECT_EQ(legacy.steals, refactored.steals);

  ASSERT_EQ(legacy.entries.size(), refactored.entries.size());
  for (size_t i = 0; i < legacy.entries.size(); ++i) {
    const Decision& a = legacy.entries[i];
    const Decision& b = refactored.entries[i];
    ASSERT_TRUE(a.time == b.time && a.type == b.type && a.job == b.job &&
                a.from == b.from && a.to == b.to)
        << "decision " << i << " diverged: legacy {t=" << a.time << " "
        << DecisionTypeName(a.type) << " job=" << a.job << " from=" << a.from
        << " to=" << a.to << "} vs refactored {t=" << b.time << " "
        << DecisionTypeName(b.type) << " job=" << b.job << " from=" << b.from
        << " to=" << b.to << "}";
  }

  ASSERT_EQ(legacy.finish_times.size(), refactored.finish_times.size());
  for (size_t i = 0; i < legacy.finish_times.size(); ++i) {
    EXPECT_EQ(legacy.finish_times[i], refactored.finish_times[i])
        << "finish time diverged for job " << i;
  }
}

// E2-style single-server scenario: one 8-GPU V100 server, three users with
// 1:1:2 tickets, and a gang mix (one 8-gang, two 4-gangs, eight 1-GPU jobs)
// chosen so the stride scheduler must time-slice across gang boundaries.
// Everything the quantum pipeline does here flows through one stride
// instance, so any selection/tie-break drift shows up immediately.
template <typename ExpT, typename SchedT>
void SingleServerScenario(ExpT& exp, SchedT& /*sched*/) {
  auto& a = exp.users().Create("a", 1.0);
  auto& b = exp.users().Create("b", 1.0);
  auto& c = exp.users().Create("c", 2.0);
  exp.SubmitAt(kTimeZero, a.id, "Transformer", 8, Hours(6));
  exp.SubmitAt(Minutes(1), b.id, "ResNet-50", 4, Hours(5));
  exp.SubmitAt(Minutes(2), c.id, "ResNet-50", 4, Hours(5));
  for (int i = 0; i < 8; ++i) {
    exp.SubmitAt(Minutes(3 + i), (i % 2 == 0 ? a : b).id, "DCGAN", 1,
                 Hours(2 + (i % 3)));
  }
  exp.Run(Hours(8));
}

// E6-style homogeneous scenario: 25x8 V100s, four users with uneven weights
// and gang sizes, arrivals staggered so placements see evolving loads, a
// mid-run drain/undrain cycle, and enough churn (finite jobs) to exercise
// stealing, both balancer passes, and the hierarchy refresh.
template <typename ExpT, typename SchedT>
void HomogeneousScenario(ExpT& exp, SchedT& sched) {
  auto& a = exp.users().Create("a", 2.0);
  auto& b = exp.users().Create("b", 1.0);
  auto& c = exp.users().CreateInGroup("c", "team", 1.0);
  auto& d = exp.users().CreateInGroup("d", "team", 1.0);

  const char* models[] = {"DCGAN", "ResNet-50", "GRU-LM", "Transformer"};
  const int gangs[] = {1, 2, 4, 8, 1, 2, 1, 4};
  const UserId users[] = {a.id, b.id, c.id, d.id};
  for (int i = 0; i < 56; ++i) {
    exp.SubmitAt(Minutes(2 * i), users[i % 4], models[i % 4], gangs[i % 8],
                 Hours(2 + (i % 5)));
  }
  exp.Run(Hours(1));
  sched.DrainServer(ServerId(3));
  sched.DrainServer(ServerId(17));
  exp.Run(Hours(2));
  sched.UndrainServer(ServerId(3));
  sched.UndrainServer(ServerId(17));
  for (int i = 0; i < 24; ++i) {
    exp.SubmitAt(Hours(2) + Minutes(7 * i), users[(i + 1) % 4], models[(i + 2) % 4],
                 gangs[i % 8], Hours(1 + (i % 3)));
  }
  exp.Run(Hours(6));
}

// Heterogeneous paper-scale scenario: trading epochs, probe migrations and
// residency rebalancing all fire (different users concentrated on different
// generations with different model speedup profiles).
template <typename ExpT, typename SchedT>
void HeterogeneousScenario(ExpT& exp, SchedT& /*sched*/) {
  auto& a = exp.users().Create("a", 1.0);
  auto& b = exp.users().Create("b", 1.0);
  auto& c = exp.users().Create("c", 2.0);

  // User a: steep generation speedups (wants fast pools). User b: shallow
  // speedups (happy to lend fast capacity). Both hold long-lived demand so
  // trades persist across epochs; user c adds finite-job churn. Total demand
  // oversubscribes the 200-GPU cluster so pool tickets actually contend.
  for (int i = 0; i < 40; ++i) {
    exp.SubmitAt(Minutes(3 * i), a.id, "ResNeXt-50", 1 + (i % 4), Hours(500));
    exp.SubmitAt(Minutes(3 * i + 1), b.id, "VAE", 1 + (i % 2), Hours(500));
  }
  for (int i = 0; i < 20; ++i) {
    exp.SubmitAt(Minutes(5 * i + 2), c.id, "Transformer", 2 * (1 + (i % 2)),
                 Hours(4 + (i % 3)));
  }
  exp.Run(Hours(6));
}

TEST(EquivalenceTest, HomogeneousDecisionStreamMatchesLegacy) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(25, 8);
  const GandivaFairConfig gf;
  const RunResult legacy = RunWith<LegacyGandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { HomogeneousScenario(exp, s); });
  const RunResult refactored = RunWith<GandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { HomogeneousScenario(exp, s); });
  // The scenario must actually exercise the mechanisms under test.
  EXPECT_GT(legacy.counts[static_cast<size_t>(DecisionType::kPlace)], 0);
  EXPECT_GT(legacy.counts[static_cast<size_t>(DecisionType::kSuspend)], 0);
  EXPECT_GT(legacy.migrations, 0);
  ExpectIdentical(legacy, refactored);
}

TEST(EquivalenceTest, HeterogeneousTradingDecisionStreamMatchesLegacy) {
  ExperimentConfig config;
  config.topology = cluster::PaperScaleTopology();
  const GandivaFairConfig gf;
  const RunResult legacy = RunWith<LegacyGandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { HeterogeneousScenario(exp, s); });
  const RunResult refactored = RunWith<GandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { HeterogeneousScenario(exp, s); });
  EXPECT_GT(legacy.counts[static_cast<size_t>(DecisionType::kTrade)], 0);
  EXPECT_GT(legacy.counts[static_cast<size_t>(DecisionType::kMigrateProbe)], 0);
  ExpectIdentical(legacy, refactored);
}

TEST(EquivalenceTest, SingleServerDecisionStreamMatchesLegacy) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(1, 8);
  const GandivaFairConfig gf;
  const RunResult legacy = RunWith<LegacyGandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { SingleServerScenario(exp, s); });
  const RunResult refactored = RunWith<GandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { SingleServerScenario(exp, s); });
  EXPECT_GT(legacy.counts[static_cast<size_t>(DecisionType::kSuspend)], 0);
  ExpectIdentical(legacy, refactored);
}

// Mixed server sizes in one pool: V100 servers of 8, 4 and 2 GPUs, listed
// interleaved so every size appears low and high in id order. Equal
// occupancies across sizes (1/2 = 2/4 = 4/8, 1 = 2/2 = 8/8) tie, and
// placement must break them by ticket load and then id exactly as the
// oracle's linear scan does.
cluster::Topology MixedSizeTopology() {
  using cluster::GpuGeneration;
  return cluster::Topology{{
      {GpuGeneration::kV100, 2, 8},
      {GpuGeneration::kV100, 2, 4},
      {GpuGeneration::kV100, 2, 2},
      {GpuGeneration::kV100, 2, 8},
      {GpuGeneration::kV100, 2, 4},
      {GpuGeneration::kV100, 2, 2},
  }};
}

// 1/2/4/8-GPU gangs from three users (8-GPU gangs fit only the 8-GPU
// servers), finite jobs for churn, and a drain/undrain of one 8-GPU and
// one 4-GPU server mid-run.
template <typename ExpT, typename SchedT>
void MixedSizeScenario(ExpT& exp, SchedT& sched) {
  auto& a = exp.users().Create("a", 2.0);
  auto& b = exp.users().Create("b", 1.0);
  auto& c = exp.users().Create("c", 1.0);
  const UserId users[] = {a.id, b.id, c.id};
  const char* models[] = {"DCGAN", "ResNet-50", "GRU-LM"};
  const int gangs[] = {1, 2, 4, 1, 8, 2, 1, 4, 2, 1};
  for (int i = 0; i < 60; ++i) {
    exp.SubmitAt(Minutes(3 * i), users[i % 3], models[i % 3], gangs[i % 10],
                 Hours(1 + (i % 4)));
  }
  exp.Run(Hours(1));
  sched.DrainServer(ServerId(1));
  sched.DrainServer(ServerId(3));
  exp.Run(Hours(2) + Minutes(30));
  sched.UndrainServer(ServerId(1));
  sched.UndrainServer(ServerId(3));
  exp.Run(Hours(8));
}

TEST(EquivalenceTest, MixedServerSizesDecisionStreamMatchesLegacy) {
  ExperimentConfig config;
  config.topology = MixedSizeTopology();
  const GandivaFairConfig gf;
  const RunResult legacy = RunWith<LegacyGandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { MixedSizeScenario(exp, s); });
  const RunResult refactored = RunWith<GandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { MixedSizeScenario(exp, s); });
  EXPECT_EQ(legacy.counts[static_cast<size_t>(DecisionType::kPlace)], 60);
  EXPECT_GT(legacy.counts[static_cast<size_t>(DecisionType::kSuspend)], 0);
  EXPECT_GT(legacy.migrations, 0);
  ExpectIdentical(legacy, refactored);
}

// Fault-free E14 configuration: the paper-scale heterogeneous cluster under
// the generated 8-user trace (same specs, generator and seed as the
// availability bench, minus the fault injector). This is the widest surface
// the pipeline refactor touches — trace-driven arrivals and finishes,
// trading, balancing and stealing all interleaved with quantum ticks.
template <typename ExpT, typename SchedT>
void TraceDrivenScenario(ExpT& exp, SchedT& /*sched*/) {
  const SimTime horizon = Hours(6);
  const auto specs = bench::ClusterUserSpecs(horizon, /*load_scale=*/2.5);
  std::vector<UserId> user_ids;
  for (const auto& spec : specs) {
    user_ids.push_back(exp.users().Create(spec.name, spec.tickets).id);
  }
  workload::TraceGenerator gen(exp.zoo(), /*seed=*/2020);
  exp.LoadTrace(gen.Generate(specs, user_ids));
  exp.Run(horizon);
}

// Fault-churn scenario for the tick-knob cross-check: oversubscribed
// mixed-gang load (every quantum flips schedules on every server) with two
// server failure/recovery cycles mid-run, so apply slices interleave with
// orphan re-placement, migration retries and recovery placements.
template <typename ExpT, typename SchedT>
void FaultChurnScenario(ExpT& exp, SchedT& /*sched*/) {
  auto& a = exp.users().Create("a");
  auto& b = exp.users().Create("b", 2.0);
  const int gangs[] = {1, 2, 1, 4, 1, 2, 8, 1};
  for (int i = 0; i < 96; ++i) {  // ~2x oversubscription on 8x8 GPUs
    exp.SubmitAt(Minutes(i % 7), (i % 2 == 0 ? a : b).id, "DCGAN", gangs[i % 8],
                 Hours(3 + (i % 4)));
  }
  exp.Run(Hours(1));
  exp.exec().FailServer(ServerId(2));
  exp.Run(Hours(1) + Minutes(31));
  exp.exec().FailServer(ServerId(5));
  exp.Run(Hours(2));
  exp.exec().RecoverServer(ServerId(2));
  exp.Run(Hours(2) + Minutes(17));
  exp.exec().RecoverServer(ServerId(5));
  exp.Run(Hours(5));
}

// Runs the fault-churn scenario on an 8x8 homogeneous cluster with the
// given tick knobs.
RunResult RunFaultChurn(const GandivaFairConfig& gf_config) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(8, 8);
  return RunWith<GandivaFairScheduler>(
      config, gf_config, [](auto& exp, auto& s) { FaultChurnScenario(exp, s); });
}

// The parallel-apply determinism gate: apply_threads > 1 prepares the
// per-server apply slices across a thread pool, and the run must stay
// bit-identical to the serial default (every knob at 1) — same decisions,
// same finish times — even with fault churn interleaved. Any hidden
// cross-slice dependency (shared RNG, event-id draw, occupancy coupling)
// would diverge the streams here.
TEST(EquivalenceTest, ParallelApplyDecisionStreamMatchesSerialUnderFaultChurn) {
  const RunResult serial = RunFaultChurn(GandivaFairConfig{});
  GandivaFairConfig parallel_gf;
  parallel_gf.apply_threads = 4;
  const RunResult parallel = RunFaultChurn(parallel_gf);
  EXPECT_GT(serial.counts[static_cast<size_t>(DecisionType::kSuspend)], 0);
  EXPECT_GT(serial.counts[static_cast<size_t>(DecisionType::kResume)], 0);
  EXPECT_GT(serial.counts[static_cast<size_t>(DecisionType::kPlace)], 0);
  ExpectIdentical(serial, parallel);
}

// The sharded planner's determinism gate: plan_shards > 1 plans contiguous
// server shards on pool threads with deferred RNG draws, and the merged
// streams must stay bit-identical to the one-shard serial default under
// fault churn — where orphan re-placements, migration retries and recovery
// placements all cross shard boundaries between ticks. A hidden cross-shard
// dependency in the fan-out (shared scratch, RNG order, dirty-set coupling)
// would diverge the streams here.
TEST(EquivalenceTest, ShardedPlanDecisionStreamMatchesSerialUnderFaultChurn) {
  const RunResult serial = RunFaultChurn(GandivaFairConfig{});
  GandivaFairConfig sharded_gf;
  sharded_gf.plan_shards = 4;
  sharded_gf.plan_threads = 4;
  const RunResult sharded = RunFaultChurn(sharded_gf);
  EXPECT_GT(serial.counts[static_cast<size_t>(DecisionType::kSuspend)], 0);
  EXPECT_GT(serial.counts[static_cast<size_t>(DecisionType::kResume)], 0);
  ExpectIdentical(serial, sharded);

  // Both fan-outs at once: the sharded plan phase and the parallel apply
  // share one tick pool and must still reproduce the serial streams.
  GandivaFairConfig combined_gf;
  combined_gf.plan_shards = 4;
  combined_gf.plan_threads = 2;
  combined_gf.apply_threads = 4;
  ExpectIdentical(serial, RunFaultChurn(combined_gf));
}

// The tick-knob determinism gate over the whole grid: the quantum tick runs
// one body for every value of plan_shards, plan_threads and apply_threads,
// and its decisions must not depend on them. Every combination of
// plan_shards {1, 4, 64} (64 is clamped to the 8 servers), plan_threads
// {1, 2, 4} and apply_threads {1, 4} — a superset of the two gates above —
// replays the fault-churn scenario and must reproduce the default config's
// stream bit for bit.
TEST(EquivalenceTest, TickKnobCrossProductMatchesDefaultUnderFaultChurn) {
  const RunResult reference = RunFaultChurn(GandivaFairConfig{});
  EXPECT_GT(reference.counts[static_cast<size_t>(DecisionType::kSuspend)], 0);
  EXPECT_GT(reference.counts[static_cast<size_t>(DecisionType::kResume)], 0);
  EXPECT_GT(reference.counts[static_cast<size_t>(DecisionType::kPlace)], 0);
  for (const int shards : {1, 4, 64}) {
    for (const int plan_threads : {1, 2, 4}) {
      for (const int apply_threads : {1, 4}) {
        GandivaFairConfig knobs;
        knobs.plan_shards = shards;
        knobs.plan_threads = plan_threads;
        knobs.apply_threads = apply_threads;
        SCOPED_TRACE("plan_shards=" + std::to_string(shards) +
                     " plan_threads=" + std::to_string(plan_threads) +
                     " apply_threads=" + std::to_string(apply_threads));
        ExpectIdentical(reference, RunFaultChurn(knobs));
      }
    }
  }
}

// Shard-count invariance on the E6-style homogeneous scenario: every fixed
// shard count — including one that exceeds the server count and gets
// clamped — must produce the one-shard default's exact decision log. The
// partition is a fixed ascending-id split merged in shard order, so the
// count can only matter if some per-shard state leaks across the cut.
TEST(EquivalenceTest, ShardCountInvarianceOnHomogeneousScenario) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(25, 8);
  const GandivaFairConfig serial_gf;
  const RunResult serial = RunWith<GandivaFairScheduler>(
      config, serial_gf, [](auto& exp, auto& s) { HomogeneousScenario(exp, s); });
  EXPECT_GT(serial.counts[static_cast<size_t>(DecisionType::kSuspend)], 0);
  EXPECT_GT(serial.migrations, 0);
  for (const int shards : {2, 4, 8, 64}) {
    GandivaFairConfig sharded_gf;
    sharded_gf.plan_shards = shards;
    sharded_gf.plan_threads = 2;
    const RunResult sharded = RunWith<GandivaFairScheduler>(
        config, sharded_gf, [](auto& exp, auto& s) { HomogeneousScenario(exp, s); });
    SCOPED_TRACE("plan_shards=" + std::to_string(shards));
    ExpectIdentical(serial, sharded);
  }
}

// Shard-count invariance on the E14-style paper-scale trace: the widest
// surface — trace-driven arrivals/finishes, trading, balancing and stealing
// interleaved with sharded ticks — across 2/4/8 shards.
TEST(EquivalenceTest, ShardCountInvarianceOnTraceDrivenScenario) {
  ExperimentConfig config;
  config.topology = cluster::PaperScaleTopology();
  config.seed = 2020;
  const GandivaFairConfig serial_gf;
  const RunResult serial = RunWith<GandivaFairScheduler>(
      config, serial_gf, [](auto& exp, auto& s) { TraceDrivenScenario(exp, s); });
  EXPECT_GT(serial.counts[static_cast<size_t>(DecisionType::kPlace)], 0);
  for (const int shards : {2, 4, 8}) {
    GandivaFairConfig sharded_gf;
    sharded_gf.plan_shards = shards;
    sharded_gf.plan_threads = 4;
    const RunResult sharded = RunWith<GandivaFairScheduler>(
        config, sharded_gf, [](auto& exp, auto& s) { TraceDrivenScenario(exp, s); });
    SCOPED_TRACE("plan_shards=" + std::to_string(shards));
    ExpectIdentical(serial, sharded);
  }
}

TEST(EquivalenceTest, TraceDrivenPaperScaleDecisionStreamMatchesLegacy) {
  ExperimentConfig config;
  config.topology = cluster::PaperScaleTopology();
  config.seed = 2020;
  const GandivaFairConfig gf;
  const RunResult legacy = RunWith<LegacyGandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { TraceDrivenScenario(exp, s); });
  const RunResult refactored = RunWith<GandivaFairScheduler>(
      config, gf, [](auto& exp, auto& s) { TraceDrivenScenario(exp, s); });
  EXPECT_GT(legacy.counts[static_cast<size_t>(DecisionType::kPlace)], 0);
  EXPECT_GT(legacy.counts[static_cast<size_t>(DecisionType::kSuspend)], 0);
  ExpectIdentical(legacy, refactored);
}

// Pipeline safety property: within every per-server slice of a
// ScheduleDelta, suspends come strictly before resumes, and replaying the
// slice against the server's pre-tick occupancy never resumes a gang onto
// GPUs its own suspends have not yet freed. Verified live over an
// oversubscribed mixed-gang cluster where every quantum flips the schedule.
// Balancing/stealing are disabled so occupancy only changes at quantum
// edges and the pre-tick snapshot stays exact.
TEST(QuantumPipelineProperty, DeltaNeverResumesOntoUnfreedGpus) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(4, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  auto& b = exp.users().Create("b");
  GandivaFairConfig gf;
  gf.enable_load_balancing = false;
  gf.enable_work_stealing = false;
  exp.UseGandivaFair(gf);
  const int gangs[] = {1, 1, 2, 4, 8, 2, 1, 1};
  for (int i = 0; i < 40; ++i) {  // ~2x oversubscription, infinite jobs
    exp.SubmitAt(kTimeZero, (i % 2 == 0 ? a : b).id, "DCGAN", gangs[i % 8],
                 Hours(100000));
  }
  exp.Run(Minutes(2));

  const GandivaFairScheduler* sched = exp.gandiva();
  SimTime now = exp.sim().Now();
  int64_t resumes_checked = 0;
  for (int q = 0; q < 50; ++q) {
    std::vector<int> busy_before;
    for (const auto& server : exp.cluster().servers()) {
      busy_before.push_back(server.num_busy());
    }
    now += Minutes(1);
    exp.Run(now);  // exactly one quantum tick

    const ScheduleDelta& delta = sched->last_delta();
    size_t i = 0;
    ServerId prev_server = ServerId::Invalid();
    while (i < delta.ops.size()) {
      const ServerId server = delta.ops[i].server;
      if (prev_server.valid()) {
        ASSERT_LT(prev_server.value(), server.value())
            << "per-server slices out of plan order";
      }
      prev_server = server;
      const cluster::Server& host = exp.cluster().server(server);
      int free = host.num_gpus() - busy_before[server.value()];
      bool seen_resume = false;
      for (; i < delta.ops.size() && delta.ops[i].server == server; ++i) {
        const exec::ScheduleOp& op = delta.ops[i];
        const int gang = exp.jobs().Get(op.job).gang_size;
        if (op.resume) {
          seen_resume = true;
          ASSERT_GE(free, gang)
              << "resume of job " << op.job << " on server " << server
              << " before its GPUs were freed";
          free -= gang;
          resumes_checked += 1;
        } else {
          ASSERT_FALSE(seen_resume)
              << "suspend after a resume in server " << server << "'s slice";
          free += gang;
        }
      }
      ASSERT_GE(free, 0);
    }
    // Oversubscribed flip: every server must actually have been planned.
    EXPECT_EQ(sched->last_plan().servers.size(), 4u);
    EXPECT_TRUE(sched->last_plan().skipped_vt.empty());
  }
  EXPECT_GT(resumes_checked, 0);
}

// Steady-state counterpart: once demand exactly covers capacity and nothing
// changes, the planner's dirty-set skip must prove every server unchanged —
// no planned servers, no ops, only virtual-time floors.
TEST(QuantumPipelineProperty, SteadyStateSkipsEveryServer) {
  ExperimentConfig config;
  config.topology = cluster::HomogeneousTopology(4, 8);
  Experiment exp(config);
  auto& a = exp.users().Create("a");
  auto& b = exp.users().Create("b");
  exp.UseGandivaFair({});
  for (int i = 0; i < 32; ++i) {  // demand == capacity
    exp.SubmitAt(kTimeZero, (i % 2 == 0 ? a : b).id, "DCGAN", 1, Hours(100000));
  }
  exp.Run(Minutes(2));

  const GandivaFairScheduler* sched = exp.gandiva();
  SimTime now = exp.sim().Now();
  for (int q = 0; q < 20; ++q) {
    now += Minutes(1);
    exp.Run(now);
    EXPECT_TRUE(sched->last_plan().servers.empty());
    EXPECT_EQ(sched->last_plan().skipped_vt.size(), 4u);
    EXPECT_TRUE(sched->last_delta().empty());
  }
}

}  // namespace
}  // namespace gfair::sched
