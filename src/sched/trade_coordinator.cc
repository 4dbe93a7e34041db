#include "sched/trade_coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "common/sorted.h"
#include "sched/gandiva_fair.h"

namespace gfair::sched {

using cluster::GenerationIndex;
using cluster::GpuGeneration;
using cluster::kAllGenerations;
using workload::Job;

TradeCoordinator::TradeCoordinator(const SchedulerEnv& env,
                                   const GandivaFairConfig& config,
                                   ClusterStateIndex& index, ResidencyIndex& residency,
                                   TicketMatrix& tickets, DecisionLog& decisions,
                                   ISchedulerHost& host)
    : env_(env),
      config_(config),
      index_(index),
      residency_(residency),
      ticket_matrix_(tickets),
      decisions_(decisions),
      host_(host),
      policy_(AllocationPolicyRegistry::Instance().Create(config.allocation_policy,
                                                          config.trade)) {
  GFAIR_CHECK_MSG(policy_ != nullptr,
                  AllocationPolicyRegistry::Instance()
                      .UnknownPolicyMessage(config.allocation_policy)
                      .c_str());
  profiles_ = ProfileStore(config_.profile_min_samples);
}

bool TradeCoordinator::UserSpeedup(UserId user, GpuGeneration fast,
                                   GpuGeneration slow, Speedup* out) const {
  GFAIR_CHECK(out != nullptr);
  // Demand-weighted mean over the user's resident jobs with usable profiles.
  // Pool lists are id-ordered: the accumulation is floating-point, so
  // summation order reaches the quantized speedup and must not vary.
  double weight_sum = 0.0;
  Speedup weighted;
  for (GpuGeneration gen : kAllGenerations) {
    for (JobId id : residency_.PoolJobs(user, gen)) {
      const Job& job = env_.jobs.Get(id);
      const auto& model = env_.zoo.Get(job.model);
      if (!model.FitsGeneration(fast) || !model.FitsGeneration(slow)) {
        continue;  // this job could not move between these pools
      }
      Speedup speedup;
      if (profiles_.Speedup(job.model, fast, slow, &speedup)) {
        weighted += speedup * job.gang_size;
        weight_sum += job.gang_size;
      }
    }
  }
  if (weight_sum <= 0.0) {
    return false;
  }
  // Quantize to 0.25 steps: profile noise on the raw mean flips the
  // lender/borrower matching between epochs, and every flip costs a round of
  // residency migrations before the new entitlements are realized. Floor
  // rather than round — the trade rate is the borrower's speedup, so any
  // upward bias makes borrowers systematically overpay.
  *out = std::max(Speedup::Unit(), FloorQuantize(weighted / weight_sum, 4.0));
  return true;
}

void TradeCoordinator::RunProbes() {
  int budget = config_.max_probes_per_epoch;
  const SimTime now = env_.sim.Now();

  for (UserId user : residency_.active_users()) {
    if (budget <= 0) {
      break;
    }
    // Snapshot: EmitMigration mutates the residency lists. Id order within
    // each pool fixes WHICH job gets the probe migration.
    std::vector<JobId> resident;
    for (GpuGeneration gen : kAllGenerations) {
      const std::vector<JobId>& pool = residency_.PoolJobs(user, gen);
      resident.insert(resident.end(), pool.begin(), pool.end());
    }
    bool probed = false;
    for (JobId id : resident) {
      if (probed) {
        break;
      }
      const Job& job = env_.jobs.Get(id);
      const ResidencyIndex::JobInfo& info = residency_.Info(id);
      if (info.precopying ||
          now - info.last_migration < config_.min_migration_interval) {
        continue;
      }
      const GpuGeneration current = env_.cluster.server(info.home).generation();
      for (GpuGeneration missing : kAllGenerations) {
        if (missing == current || env_.cluster.total_gpus(missing) == 0) {
          continue;
        }
        if (!env_.zoo.Get(job.model).FitsGeneration(missing)) {
          continue;  // cannot even load there — nothing to profile
        }
        if (profiles_.HasEstimate(job.model, missing)) {
          continue;
        }
        // Cheapest server of the missing generation that can host the gang.
        const ServerId dest = index_.LeastLoadedServer(missing, job.gang_size);
        if (dest.valid()) {
          GFAIR_DLOG << "probe: job " << id << " -> " << cluster::GenerationName(missing);
          host_.EmitMigration(id, dest, MigrationCause::kProbe);
          ++probes_started_;
          --budget;
          probed = true;  // one probe per user per epoch
          break;
        }
      }
    }
  }
}

void TradeCoordinator::TradeEpoch() {
  if (!config_.enable_trading || !env_.cluster.heterogeneous()) {
    return;
  }
  const std::vector<UserId> active = residency_.ActiveUsers();
  if (active.size() < 2) {
    // Nobody to trade with: no probes either (a probe strands the lone
    // user's job on a slower pool with no trade flow to bring it back).
    ticket_matrix_.ResetToBase();
    host_.RefreshAllTickets();
    return;
  }
  RunProbes();

  TradeInputs inputs;
  inputs.active_users = active;
  for (UserId user : active) {
    // Matrix base = hierarchy-adjusted effective tickets (== the user's own
    // tickets when hierarchical sharing is off or the user is ungrouped).
    inputs.base_tickets[user] = ticket_matrix_.base(user);
    inputs.total_demand_gpus[user] = residency_.TotalDemand(user);
  }
  for (GpuGeneration gen : kAllGenerations) {
    // Trade over surviving capacity only: GPUs on down servers are not
    // anyone's to lend (identical to total_gpus when nothing is down).
    inputs.pool_sizes[GenerationIndex(gen)] = env_.cluster.up_gpus(gen);
  }
  inputs.user_speedup = [this](UserId user, GpuGeneration fast, GpuGeneration slow,
                               Speedup* out) {
    return UserSpeedup(user, fast, slow, out);
  };

  const TradeOutcome outcome = policy_->Allocate(inputs);

  ticket_matrix_.ResetToBase();
  if (!outcome.trades.empty()) {
    // Pool tickets become the traded entitlements (stride normalizes within
    // each pool, so entitlement GPUs double as tickets). Sets on distinct
    // users commute, but sorted order keeps the loop lint-clean and any
    // future logging deterministic.
    for (const auto& [user, entitlement] : common::SortedItems(outcome.entitlements)) {
      for (GpuGeneration gen : kAllGenerations) {
        ticket_matrix_.Set(user, gen,
                           std::max(entitlement[GenerationIndex(gen)], 0.0));
      }
    }
    executed_trades_.insert(executed_trades_.end(), outcome.trades.begin(),
                            outcome.trades.end());
    for (size_t i = 0; i < outcome.trades.size(); ++i) {
      decisions_.RecordTrade(env_.sim.Now(), outcome.trades[i].rate);
    }
  }
  host_.RefreshAllTickets();
  if (!outcome.trades.empty()) {
    RebalanceResidency(outcome);
  }
}

void TradeCoordinator::RebalanceResidency(const TradeOutcome& outcome) {
  int budget = config_.max_trade_migrations;
  const SimTime now = env_.sim.Now();

  // Sorted by user: the migration budget is consumed in user order, so WHICH
  // user's rebalance gets cut off when the budget runs out must not depend
  // on hash order.
  for (const auto& [user, entitlement] : common::SortedItems(outcome.entitlements)) {
    while (budget > 0) {
      cluster::PerGeneration<double> surplus{};
      for (GpuGeneration gen : kAllGenerations) {
        surplus[GenerationIndex(gen)] =
            entitlement[GenerationIndex(gen)] - residency_.ResidentDemand(user, gen);
      }
      // Most over-resident pool and most under-used entitlement.
      size_t over = 0;
      size_t under = 0;
      for (size_t g = 1; g < cluster::kNumGenerations; ++g) {
        if (surplus[g] < surplus[over]) {
          over = g;
        }
        if (surplus[g] > surplus[under]) {
          under = g;
        }
      }
      // Deadband: entitlements are fractional while residency moves in whole
      // gangs, so small mismatches are permanent — chasing them would
      // migrate the same jobs back and forth every epoch.
      if (surplus[over] > -1.0 || surplus[under] < 1.0) {
        break;
      }

      // Smallest gang that the destination surplus still covers; the pool
      // list is id-ordered, so a smallest-gang tie breaks to the lowest job
      // id.
      JobId candidate = JobId::Invalid();
      int candidate_gang = INT32_MAX;
      for (JobId id : residency_.PoolJobs(user, kAllGenerations[over])) {
        const Job& job = env_.jobs.Get(id);
        const ResidencyIndex::JobInfo& info = residency_.Info(id);
        if (info.precopying ||
            now - info.last_migration < config_.min_migration_interval) {
          continue;
        }
        if (!env_.zoo.Get(job.model).FitsGeneration(kAllGenerations[under])) {
          continue;
        }
        if (job.gang_size <= surplus[under] && job.gang_size < candidate_gang) {
          candidate = id;
          candidate_gang = job.gang_size;
        }
      }
      if (!candidate.valid()) {
        break;
      }
      const GpuGeneration dest_gen = kAllGenerations[under];
      const ServerId dest = index_.LeastLoadedServer(dest_gen, candidate_gang);
      if (!dest.valid()) {
        break;
      }
      host_.EmitMigration(candidate, dest, MigrationCause::kTrade);
      --budget;
    }
    if (budget <= 0) {
      break;
    }
  }
}

}  // namespace gfair::sched
