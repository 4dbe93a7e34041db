// TradeCoordinator — profiling, probe migrations and the trading epoch.
//
// Owns the ProfileStore (fed transparently from running jobs every quantum),
// the configured IAllocationPolicy backend, and the executed-trade history.
// Every trade period it covers missing profiles with bounded probe
// migrations, asks the backend for the epoch's entitlement allocation (built
// from demand-weighted user speedups), reshapes the ticket matrix to the
// allocated entitlements, and rebalances residency so jobs follow their
// user's entitlements. Server loads come from the ClusterStateIndex,
// residency and demand from the ResidencyIndex; migrations and the ticket
// refresh go through the host.
#ifndef GFAIR_SCHED_TRADE_COORDINATOR_H_
#define GFAIR_SCHED_TRADE_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/phase_tokens.h"
#include "sched/cluster_state_index.h"
#include "sched/decision_log.h"
#include "sched/policy/allocation_policy.h"
#include "sched/profiler.h"
#include "sched/residency_index.h"
#include "sched/scheduler_host.h"
#include "sched/scheduler_iface.h"
#include "sched/ticket_matrix.h"
#include "sched/trade.h"

namespace gfair::sched {

struct GandivaFairConfig;

class TradeCoordinator {
 public:
  TradeCoordinator(const SchedulerEnv& env, const GandivaFairConfig& config,
                   ClusterStateIndex& index, ResidencyIndex& residency,
                   TicketMatrix& tickets, DecisionLog& decisions,
                   ISchedulerHost& host);

  // Profiling: one observed-rate sample for a running job (the tick's
  // reduce step feeds this every quantum while trade epochs run, normalizing
  // the whole-gang rate with PerGpuRate::FromGangRate at the executor
  // boundary).
  // The sample draw consumes the executor's single RNG stream, so feeding
  // the profiler is a serial-phase operation: the ReduceToken (mintable
  // only at the tick's serial points — see common/phase_tokens.h) makes
  // calling this from the shard fan-out a compile error.
  void RecordSample(workload::ModelId model, cluster::GpuGeneration gen,
                    PerGpuRate per_gpu_rate, common::ReduceToken) {
    profiles_.AddSample(model, gen, per_gpu_rate);
  }

  // One trading epoch (probes, trade computation, ticket reshape, residency
  // rebalancing).
  void TradeEpoch();

  const ProfileStore& profiles() const { return profiles_; }
  ProfileStore& mutable_profiles() { return profiles_; }
  const std::vector<Trade>& executed_trades() const { return executed_trades_; }
  int64_t probes_started() const { return probes_started_; }
  const IAllocationPolicy& policy() const { return *policy_; }

 private:
  // Demand-weighted mean speedup of the user's profiled resident jobs.
  bool UserSpeedup(UserId user, cluster::GpuGeneration fast,
                   cluster::GpuGeneration slow, Speedup* out) const;
  // Bounded probe migrations to cover generations with no profile estimate.
  void RunProbes();
  // Moves jobs toward their users' traded entitlements.
  void RebalanceResidency(const TradeOutcome& outcome);

  const SchedulerEnv& env_;
  const GandivaFairConfig& config_;
  ClusterStateIndex& index_;
  ResidencyIndex& residency_;
  TicketMatrix& ticket_matrix_;
  DecisionLog& decisions_;
  ISchedulerHost& host_;

  ProfileStore profiles_;
  // Resolved from GandivaFairConfig::allocation_policy via the registry at
  // construction (unknown names CHECK-fail with the registered listing).
  std::unique_ptr<IAllocationPolicy> policy_;
  std::vector<Trade> executed_trades_;
  int64_t probes_started_ = 0;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_TRADE_COORDINATOR_H_
