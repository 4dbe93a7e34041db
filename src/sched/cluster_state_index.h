// ClusterStateIndex — incrementally-maintained per-server scheduler state.
//
// The shared state layer every GandivaFair subsystem operates on. It owns the
// per-server LocalStrideScheduler instances (whose ticket/demand loads are
// themselves cached, see stride.h), the per-server draining flags, and — the
// piece that makes cluster-wide queries cheap — one ordered set per GPU
// generation of that pool's servers keyed by normalized ticket load
// (tickets per physical GPU), plus ServerId as the tie-breaker.
//
// Invariants:
//  * By the time any ordered-set query runs, a server's position in its
//    pool's set reflects stride(s).TicketLoad() / num_gpus(s). Mutations that
//    can change a ticket load go through AddJob/RemoveJob/InvalidateTicketLoad
//    here, which mark the server's position dirty; queries flush dirty
//    positions first. Deferring the reposition keeps a pool re-pricing O(1)
//    per hosting server — an eager reposition would recompute each server's
//    whole ticket load on every invalidation, re-creating the quadratic
//    refresh this index removes. stride() gives raw access only for
//    operations that cannot change loads (Charge, SelectForQuantum, reads).
//  * Tickets are published per (user, pool) as a TicketRate that resident
//    entries read (stride.h). When its owner rewrites a rate it calls
//    InvalidateTicketLoad on each server hosting one of the pool's jobs: the
//    cached ticket load and pool position go stale, the plan-dirty flag does
//    not — tickets enter neither the selection key nor the planner's skip
//    condition (quantum_planner.h), so a re-priced steady server stays
//    skippable.
//  * Per pool, the ids of servers whose runnable demand exceeds their GPU
//    count (the only possible work-stealing donors), kept in ascending order
//    by AddJob/RemoveJob — the same order Cluster::servers_of() lists them.
//  * Ties in the ordered set resolve to the lower ServerId. Because
//    Cluster::servers_of() lists ids in ascending order, a "first strictly
//    smaller wins" linear scan and a walk of this set agree on the winner —
//    which keeps index-backed least-loaded queries decision-identical to the
//    pre-index linear scans.
//  * Per pool, servers are grouped by occupancy, the double
//    min(1, DemandLoad / num_gpus) that placement ranks servers by first.
//    Groups ascend by occupancy and only non-empty groups exist. Each is a
//    contiguous array of server ids in no particular order: removal swaps
//    the last member into the leaver's slot, and each server's slot is
//    kept. AddJob/RemoveJob move a server only when its occupancy changes.
//    Placement walks the groups from the lowest and reads ticket loads only
//    in the first group holding an eligible server. That is exactly the
//    pre-index linear scan, which compared occupancies within 1e-9:
//    occupancies are small rationals d/g, two different ones differ by at
//    least 1/(g1*g2), and with at most kMaxServerGpus GPUs per server
//    (CHECKed at construction) that gap, >= 6e-8, dwarfs the tolerance. So
//    the scan's comparisons were exact, and equal rationals (2/4 and 4/8)
//    are equal doubles that share a group.
#ifndef GFAIR_SCHED_CLUSTER_STATE_INDEX_H_
#define GFAIR_SCHED_CLUSTER_STATE_INDEX_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/types.h"
#include "sched/stride.h"

namespace gfair::sched {

class ClusterStateIndex {
 public:
  // Largest server the occupancy groups order exactly (see header comment).
  static constexpr int kMaxServerGpus = 4096;

  ClusterStateIndex(const cluster::Cluster& cluster, const StrideConfig& stride_config);

  // --- per-server stride access ---
  // Raw access for load-neutral operations (Charge, PlanQuantum, reads).
  // Inline: these run once or more per job per quantum.
  LocalStrideScheduler& stride(ServerId server) {
    GFAIR_CHECK(server.valid() && server.value() < strides_.size());
    return strides_[server.value()];
  }
  const LocalStrideScheduler& stride(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < strides_.size());
    return strides_[server.value()];
  }

  // --- load-changing mutations (keep the pool ordering fresh) ---
  // Registers a resident priced by `rate` (see LocalStrideScheduler::AddJob).
  void AddJob(ServerId server, JobId id, int gang_size, double share,  // gfair-lint: allow(raw-double-in-sched-api) -- share is gang x weight, not a unit quantity
              const TicketRate* rate);
  void RemoveJob(ServerId server, JobId id);
  // A rate read by `server`'s residents changed: its cached ticket load and
  // pool position go stale. Not plan-dirty (see header comment).
  void InvalidateTicketLoad(ServerId server) {
    stride(server).InvalidateTicketLoad();
    MarkDirty(server);
  }

  // --- draining ---
  void SetDraining(ServerId server, bool draining);
  bool draining(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < draining_.size());
    return draining_[server.value()];
  }
  // True when any server is currently draining (lets periodic drain batches
  // short-circuit).
  bool AnyDraining() const { return num_draining_ > 0; }

  // --- availability ---
  // Mirror of the cluster's up/down flag, set by the facade's server-down/up
  // handlers. A down server is invisible to LeastLoadedServer; its stride
  // state stays intact only transiently (the orphan callbacks that follow a
  // failure detach every resident job).
  void SetDown(ServerId server, bool down);
  bool down(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < down_.size());
    return down_[server.value()];
  }
  bool AnyDown() const { return num_down_ > 0; }

  // --- plan dirty-set (consumed by QuantumPlanner) ---
  // A server is plan-dirty when its selectable set may have changed since the
  // facade last accepted a plan for it: job arrival/completion/migration
  // (AddJob/RemoveJob) and up/down transitions mark it; ticket re-pricing
  // does not. The flag is one half of the planner's skip condition — see
  // QuantumPlanner for the invariant and the other half.
  bool plan_dirty(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < plan_dirty_.size());
    return plan_dirty_[server.value()] != 0;
  }
  // The facade clears the flag when it commits a plan for the server (the
  // planner itself is pure and touches nothing).
  void ClearPlanDirty(ServerId server) {
    GFAIR_CHECK(server.valid() && server.value() < plan_dirty_.size());
    plan_dirty_[server.value()] = 0;
  }

  // --- queries ---
  // Normalized ticket load (tickets per physical GPU) — O(1) amortized. A
  // bare double on purpose: it is the pool ordering key (PoolByLoad below),
  // not a fairness quantity.
  double NormTicketLoad(ServerId server) const;  // gfair-lint: allow(raw-double-in-sched-api)

  // Least-normalized-ticket-load server of `gen` with at least `min_gpus`
  // GPUs, not draining, and not `exclude`. O(log n) plus filtered prefix.
  // Invalid when no server qualifies.
  ServerId LeastLoadedServer(cluster::GpuGeneration gen, int min_gpus,
                             ServerId exclude = ServerId::Invalid()) const;

  // The pool's (normalized load, server) pairs in ascending order.
  using PoolByLoad = std::set<std::pair<double, ServerId>>;
  const PoolByLoad& pool_by_load(cluster::GpuGeneration gen) const {
    Flush();
    return pools_by_load_[cluster::GenerationIndex(gen)];
  }

  // Servers of `gen` whose runnable demand exceeds their GPU count, in
  // ascending id order.
  const std::set<ServerId>& oversubscribed(cluster::GpuGeneration gen) const {
    return oversubscribed_[cluster::GenerationIndex(gen)];
  }
  // True when some pool has an oversubscribed server (a steal donor).
  bool AnyOversubscribed() const {
    for (const auto& pool : oversubscribed_) {
      if (!pool.empty()) {
        return true;
      }
    }
    return false;
  }

  // A server's occupancy: min(1, resident GPU demand / GPUs), its group key.
  double Occupancy(ServerId server) const;
  // One occupancy group of a pool (see header comment).
  struct OccupancyGroup {
    double occupancy;
    std::vector<ServerId> servers;  // unordered
  };
  // The pool's non-empty occupancy groups, ascending by occupancy.
  const std::vector<OccupancyGroup>& occupancy_groups(cluster::GpuGeneration gen) const {
    return occupancy_groups_[cluster::GenerationIndex(gen)];
  }
  // The server's position in its group's `servers` (what swap-remove keeps).
  uint32_t occupancy_slot(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < occupancy_slot_.size());
    return occupancy_slot_[server.value()];
  }

  size_t num_servers() const { return strides_.size(); }

 private:
  void MarkDirty(ServerId server);
  // Moves `server` into or out of its pool's oversubscribed set after a
  // membership change.
  void UpdateOversubscribed(ServerId server);
  // Moves `server` to the group of its current occupancy if that changed.
  void UpdateOccupancyGroup(ServerId server);
  void JoinOccupancyGroup(ServerId server, double occupancy);
  void LeaveOccupancyGroup(ServerId server);
  void MarkPlanDirty(ServerId server) { plan_dirty_[server.value()] = 1; }
  // Repositions every dirty server in its pool's ordered set.
  void Flush() const;
  void Reposition(ServerId server) const;

  const cluster::Cluster& cluster_;
  std::vector<LocalStrideScheduler> strides_;  // indexed by ServerId value
  std::vector<bool> draining_;
  int num_draining_ = 0;
  std::vector<bool> down_;
  int num_down_ = 0;
  // uint8_t, not vector<bool>: read once per server per quantum.
  std::vector<uint8_t> plan_dirty_;
  cluster::PerGeneration<std::set<ServerId>> oversubscribed_;
  cluster::PerGeneration<std::vector<OccupancyGroup>> occupancy_groups_;
  std::vector<double> occupancy_;         // the key of each server's group
  std::vector<uint32_t> occupancy_slot_;  // its position in that group

  // Lazily-maintained pool orderings (see header comment).
  mutable std::vector<double> load_key_;  // key currently in the pool set
  mutable std::vector<bool> pos_dirty_;
  mutable std::vector<ServerId> dirty_list_;
  mutable cluster::PerGeneration<PoolByLoad> pools_by_load_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_CLUSTER_STATE_INDEX_H_
