// Randomized-operation fuzz suites with invariant checking:
//  * GreedyTradePolicy over random user populations — conservation, no negative
//    entitlements, no user worse off, rate bounds;
//  * LocalStrideScheduler under random add/remove/retarget churn — selection
//    feasibility, pass monotonicity, load accounting;
//  * Executor under random verb sequences interleaved with server
//    failures/recoveries — state machine legality and occupancy consistency.
#include <gtest/gtest.h>

#include <cmath>

#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "sched/stride.h"
#include "sched/policy/greedy_trade_policy.h"
#include "simkit/simulator.h"
#include "workload/model_zoo.h"

namespace gfair {
namespace {

// ---------------------------------------------------------------------------
// GreedyTradePolicy fuzz.
// ---------------------------------------------------------------------------

class TradeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TradeFuzz, InvariantsHoldForRandomPopulations) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const int num_users = static_cast<int>(rng.UniformInt(2, 12));
    sched::TradeInputs inputs;
    std::vector<double> speedups;
    for (int u = 0; u < num_users; ++u) {
      inputs.active_users.push_back(UserId(static_cast<uint32_t>(u)));
      inputs.base_tickets[UserId(u)] = rng.Uniform(0.5, 4.0);
      inputs.total_demand_gpus[UserId(u)] = rng.Uniform(1.0, 120.0);
      speedups.push_back(rng.Uniform(1.0, 6.5));
    }
    for (size_t g = 0; g < cluster::kNumGenerations; ++g) {
      inputs.pool_sizes[g] = static_cast<int>(rng.UniformInt(0, 64));
    }
    // Pairwise speedups must be multiplicatively consistent (they are ratios
    // of per-generation rates, exactly as ProfileStore derives them):
    // rate(g) interpolates 1 .. base geometrically across generations.
    auto rate_of = [&speedups](UserId user, cluster::GpuGeneration gen) {
      const double base = speedups[user.value()];
      return std::pow(base, static_cast<double>(cluster::GenerationIndex(gen)) / 3.0);
    };
    inputs.user_speedup = [&rate_of](UserId user, cluster::GpuGeneration fast,
                                     cluster::GpuGeneration slow, Speedup* out) {
      *out = Speedup::FromRatio(rate_of(user, fast) / rate_of(user, slow));
      return true;
    };

    sched::TradeConfig config;
    config.rate_rule = rng.Bernoulli(0.5) ? sched::TradeConfig::RateRule::kBorrowerSpeedup
                                          : sched::TradeConfig::RateRule::kGeometricMean;
    sched::GreedyTradePolicy engine(config);
    const auto outcome = engine.Allocate(inputs);

    // Pool conservation and non-negativity.
    for (size_t g = 0; g < cluster::kNumGenerations; ++g) {
      double total = 0.0;
      for (const auto& [user, ent] : outcome.entitlements) {
        ASSERT_GE(ent[g], -1e-6);
        total += ent[g];
      }
      ASSERT_NEAR(total, static_cast<double>(inputs.pool_sizes[g]), 1e-6);
    }
    // No user's entitlement value (own-speedup weighted) drops below base.
    double total_tickets = 0.0;
    for (UserId user : inputs.active_users) {
      total_tickets += inputs.base_tickets[user].raw();
    }
    for (UserId user : inputs.active_users) {
      const double fraction = inputs.base_tickets[user].raw() / total_tickets;
      double base_value = 0.0;
      double post_value = 0.0;
      const auto& ent = outcome.entitlements.at(user);
      for (size_t g = 0; g < cluster::kNumGenerations; ++g) {
        Speedup speedup_vs_k80 = Speedup::Unit();
        inputs.user_speedup(user, cluster::kAllGenerations[g], cluster::GpuGeneration::kK80,
                            &speedup_vs_k80);
        base_value += fraction * inputs.pool_sizes[g] * speedup_vs_k80.raw();
        post_value += ent[g] * speedup_vs_k80.raw();
      }
      ASSERT_GE(post_value, base_value - 1e-6)
          << "user " << user << " lost entitlement value (seed " << GetParam()
          << ", round " << round << ")";
    }
    // Rates bounded by the participants' speedups.
    for (const auto& trade : outcome.trades) {
      ASSERT_GE(trade.rate.raw(), 1.0);
      ASSERT_LE(trade.rate.raw(), trade.borrower_speedup.raw() + 1e-9);
      ASSERT_GT(trade.fast_gpus, 0.0);
      ASSERT_NEAR(trade.slow_gpus, trade.fast_gpus * trade.rate.raw(), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TradeFuzz, ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Stride fuzz.
// ---------------------------------------------------------------------------

class StrideFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrideFuzz, SelectionAlwaysFeasibleAndPassesMonotone) {
  Rng rng(GetParam());
  sched::LocalStrideScheduler stride(8);
  std::unordered_map<uint32_t, double> last_pass;
  uint32_t next_id = 0;
  std::vector<JobId> resident;

  for (int step = 0; step < 5'000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op <= 2 || resident.empty()) {  // add
      const int gang = static_cast<int>(1 << rng.UniformInt(0, 3));
      const JobId id(next_id++);
      stride.AddJob(id, gang, rng.Uniform(0.01, 4.0));
      resident.push_back(id);
      last_pass[id.value()] = stride.PassOf(id).raw();
      // Newcomers never enter below the virtual time.
      ASSERT_GE(stride.PassOf(id), stride.VirtualTime() - Stride(1e-9));
    } else if (op == 3 && resident.size() > 1) {  // remove random
      const size_t victim =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(resident.size()) - 1));
      stride.RemoveJob(resident[victim]);
      last_pass.erase(resident[victim].value());
      resident.erase(resident.begin() + static_cast<long>(victim));
    } else if (op == 4) {  // retarget tickets
      const JobId id = resident[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(resident.size()) - 1))];
      stride.SetTickets(id, rng.Uniform(0.01, 4.0));
    } else {  // run a quantum
      const auto selected = stride.SelectForQuantum();
      int used = 0;
      for (JobId id : selected) {
        used += stride.GangOf(id);
        stride.Charge(id, 60'000);
      }
      ASSERT_LE(used, 8) << "selection oversubscribed the server";
    }
    // Pass monotonicity: charges never decrease a job's pass.
    for (JobId id : resident) {
      const double pass = stride.PassOf(id).raw();
      auto it = last_pass.find(id.value());
      if (it != last_pass.end()) {
        ASSERT_GE(pass, it->second - 1e-9);
      }
      last_pass[id.value()] = pass;
    }
    ASSERT_EQ(stride.num_jobs(), resident.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrideFuzz, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Executor fuzz: random legal verb sequences on a small cluster.
// ---------------------------------------------------------------------------

class ExecutorFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorFuzz, StateMachineAndOccupancyStayConsistent) {
  Rng rng(GetParam());
  simkit::Simulator sim;
  cluster::Cluster cluster(cluster::Topology{{
      {cluster::GpuGeneration::kK80, 2, 4},
      {cluster::GpuGeneration::kV100, 2, 4},
  }});
  workload::JobTable jobs;
  exec::Executor exec(sim, cluster, workload::ModelZoo::Default(), jobs,
                      exec::ExecutorConfig{}, GetParam());
  const auto& zoo = workload::ModelZoo::Default();

  std::vector<JobId> ids;
  for (int i = 0; i < 8; ++i) {
    const auto& model = zoo.models()[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(zoo.size()) - 1))];
    auto& job =
        jobs.Create(UserId(0), model.id, static_cast<int>(1 << rng.UniformInt(0, 2)),
                    1e9, sim.Now());
    ids.push_back(job.id);
  }

  for (int step = 0; step < 3'000; ++step) {
    sim.RunUntil(sim.Now() + Seconds(rng.UniformInt(1, 120)));

    // Occasionally flip a server's availability: failure evacuates its jobs,
    // recovery makes it a target again. Both must preserve every invariant
    // below, whatever verbs the rest of the walk interleaves.
    if (rng.Bernoulli(0.02)) {
      const auto& servers = cluster.servers();
      const auto& victim = servers[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(servers.size()) - 1))];
      if (victim.up()) {
        exec.FailServer(victim.id());
      } else {
        exec.RecoverServer(victim.id());
      }
    }

    const JobId id = ids[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
    auto& job = jobs.Get(id);
    switch (job.state) {
      case workload::JobState::kQueued: {
        const auto& servers = cluster.servers();
        const auto& target = servers[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(servers.size()) - 1))];
        if (target.up() && target.num_gpus() >= job.gang_size &&
            zoo.Get(job.model).FitsGeneration(target.generation())) {
          exec.MakeResident(id, target.id());
        }
        break;
      }
      case workload::JobState::kSuspended:
        if (rng.Bernoulli(0.2)) {
          // Migrate to a random other up server that can host the gang.
          for (const auto& server : cluster.servers()) {
            if (server.up() && server.id() != job.server &&
                server.num_gpus() >= job.gang_size &&
                zoo.Get(job.model).FitsGeneration(server.generation())) {
              exec.Migrate(id, server.id());
              break;
            }
          }
        } else if (cluster.server(job.server).CanFit(job.gang_size)) {
          exec.Resume(id);
        } else if (rng.Bernoulli(0.1)) {
          exec.InjectCrash(id);
        }
        break;
      case workload::JobState::kRunning:
        if (rng.Bernoulli(0.15)) {
          exec.InjectCrash(id);
        } else {
          exec.Suspend(id);
        }
        break;
      case workload::JobState::kMigrating:
      case workload::JobState::kFinished:
        break;
    }

    // Occupancy invariant: every server's busy GPUs equal the gangs of the
    // jobs running there; progress bounded.
    int busy_total = 0;
    for (const auto& server : cluster.servers()) {
      if (!server.up()) {
        ASSERT_EQ(server.num_busy(), 0) << "down server still holds GPUs";
      }
      busy_total += server.num_busy();
    }
    int running_total = 0;
    for (JobId jid : ids) {
      const auto& observed = jobs.Get(jid);
      if (exec.IsRunning(jid)) {
        ASSERT_EQ(observed.state, workload::JobState::kRunning);
        running_total += observed.gang_size;
      }
      ASSERT_GE(observed.completed_minibatches, observed.checkpointed_minibatches - 1e-6);
    }
    ASSERT_EQ(busy_total, running_total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzz, ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace gfair
