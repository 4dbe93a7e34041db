// LoadBalancer — periodic migration-based load balancing and drain batches.
//
// Every balance period, per generation pool: first a work-conservation pass
// (move waiting gangs from oversubscribed servers onto idle GPUs), then a
// fairness pass (even out per-server ticket load so every resident job's
// stride share is realizable). Also evacuates draining servers in bounded
// batches. Reads loads from the ClusterStateIndex; migrations go through
// the host.
#ifndef GFAIR_SCHED_LOAD_BALANCER_H_
#define GFAIR_SCHED_LOAD_BALANCER_H_

#include <vector>

#include "common/units.h"
#include "sched/cluster_state_index.h"
#include "sched/residency_index.h"
#include "sched/scheduler_host.h"
#include "sched/scheduler_iface.h"

namespace gfair::sched {

struct GandivaFairConfig;

class LoadBalancer {
 public:
  LoadBalancer(const SchedulerEnv& env, const GandivaFairConfig& config,
               ClusterStateIndex& index, ResidencyIndex& residency,
               ISchedulerHost& host);

  // One balance tick: drain batches first, then both passes per pool.
  void Balance();

  // Drains one bounded batch of jobs off every draining server.
  void DrainBatch();

 private:
  const SchedulerEnv& env_;
  const GandivaFairConfig& config_;
  ClusterStateIndex& index_;
  ResidencyIndex& residency_;
  ISchedulerHost& host_;

  // Per-pass in-flight sums, indexed by position in the pool's
  // servers_of(gen); reassigned at the start of each pass.
  std::vector<double> pending_demand_;
  std::vector<Tickets> pending_tickets_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_LOAD_BALANCER_H_
