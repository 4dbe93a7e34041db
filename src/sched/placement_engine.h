// PlacementEngine — central placement and event-driven work stealing.
//
// Chooses the pool and server for arriving jobs (entitlement-proportional
// pool choice, occupancy-then-ticket-load server choice) and pulls suspended
// work onto idle GPUs from oversubscribed peers. Reads server loads and
// draining state from the ClusterStateIndex and per-user demand from the
// ResidencyIndex; migrations go through the host.
#ifndef GFAIR_SCHED_PLACEMENT_ENGINE_H_
#define GFAIR_SCHED_PLACEMENT_ENGINE_H_

#include <cstdint>
#include <vector>

#include "sched/cluster_state_index.h"
#include "sched/residency_index.h"
#include "sched/scheduler_host.h"
#include "sched/scheduler_iface.h"

namespace gfair::sched {

struct GandivaFairConfig;

class PlacementEngine {
 public:
  PlacementEngine(const SchedulerEnv& env, const GandivaFairConfig& config,
                  ClusterStateIndex& index, ResidencyIndex& residency,
                  ISchedulerHost& host);

  // Server for an arriving job; Invalid when no server can host the gang.
  ServerId ChoosePlacement(const workload::Job& job) const;

  // Work stealing: fill `server`'s idle GPUs with a suspended job migrated
  // from an oversubscribed server of the same pool (at most one steal per
  // server per quantum).
  void TrySteal(ServerId server);

  int64_t steals_started() const { return steals_started_; }

 private:
  const SchedulerEnv& env_;
  const GandivaFairConfig& config_;
  ClusterStateIndex& index_;
  ResidencyIndex& residency_;
  ISchedulerHost& host_;

  int64_t steals_started_ = 0;
  // Per-server rate limit for stealing (indexed by ServerId value).
  std::vector<SimTime> last_steal_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_PLACEMENT_ENGINE_H_
