// ClusterStateIndex — incrementally-maintained per-server scheduler state.
//
// The shared state layer every GandivaFair subsystem operates on. It owns the
// per-server LocalStrideScheduler instances (whose ticket/demand loads are
// themselves cached, see stride.h), the per-server draining and down flags,
// and the two structures that make cluster-wide load queries cheap:
// certified ticket-load bounds and occupancy groups.
//
// Invariants:
//  * Per server, a dense record holds an interval [lo, hi] that contains the
//    exact float ticket load, stride(s).FreshTicketLoad(), next to the GPU
//    count and the draining and down flags. Mutations that can change a
//    ticket load go through AddJob/RemoveJob/RepriceTicketLoad here, and
//    each moves the interval by O(1) arithmetic (load_bound.h; DESIGN.md
//    states the proof): from the cached load when the stride's cache is
//    clean, from the current interval otherwise. After ExactTicketLoad
//    re-sums a server, its interval is the point TicketLoad(), and a point
//    interval is that load bit for bit. stride() gives raw access only for
//    operations that cannot change loads (Charge, SelectForQuantum, reads).
//  * The load queries (LeastLoadedAmong and its callers, ScanLoadSpread)
//    scan only these records. A server whose interval cannot reach the
//    extreme is below (or above) some other server's exact load, so it can
//    neither win nor tie; only the others are re-summed, and the queries'
//    tie rules then compare exact loads. Every answer is the one a linear
//    scan of fresh sums gives.
//  * Tickets are published per (user, pool) as a TicketRate that resident
//    entries read (stride.h). When its owner rewrites a rate it calls
//    RepriceTicketLoad on each server hosting one of the pool's jobs, with
//    the share sum hosted there: the cached ticket load goes stale and the
//    interval shifts; the plan-dirty flag does not — tickets enter neither
//    the selection key nor the planner's skip condition (quantum_planner.h),
//    so a re-priced steady server stays skippable.
//  * Per pool, the ids of servers whose runnable demand exceeds their GPU
//    count (the only possible work-stealing donors), kept in ascending order
//    by AddJob/RemoveJob — the same order Cluster::servers_of() lists them.
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
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/types.h"
#include "sched/load_bound.h"
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

  // --- load-changing mutations (keep the load bounds certified) ---
  // Registers a resident priced by `rate`, charged through `last_charge`
  // (see LocalStrideScheduler::AddJob).
  void AddJob(ServerId server, JobId id, int gang_size, double share,  // gfair-lint: allow(raw-double-in-sched-api) -- share is gang x weight, not a unit quantity
              const TicketRate* rate, SimTime last_charge = kTimeZero);
  void RemoveJob(ServerId server, JobId id);
  // A rate read by residents of `server` whose shares sum to `shares`
  // changed as `change` says: its cached ticket load goes stale and its
  // bounds shift. Not plan-dirty (see header comment). Inline: a re-pricing
  // calls it once per hosting server.
  void RepriceTicketLoad(ServerId server, const ShareSum& shares, const RateChange& change) {
    GFAIR_CHECK(server.valid() && server.value() < strides_.size());
    ShiftLoadBound(server, change.ShiftFor(shares), loads_[server.value()].entries);
    strides_[server.value()].InvalidateTicketLoad();
  }

  // --- draining ---
  void SetDraining(ServerId server, bool draining);
  bool draining(ServerId server) const { return server_load(server).draining != 0; }
  // True when any server is currently draining (lets periodic drain batches
  // short-circuit).
  bool AnyDraining() const { return num_draining_ > 0; }

  // --- availability ---
  // Mirror of the cluster's up/down flag, set by the facade's server-down/up
  // handlers. A down server is invisible to LeastLoadedServer; its stride
  // state stays intact only transiently (the orphan callbacks that follow a
  // failure detach every resident job).
  void SetDown(ServerId server, bool down);
  bool down(ServerId server) const { return server_load(server).down != 0; }
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

  // --- load bounds ---
  // What the load scans read per server, one 32-byte record: certified
  // bounds lo <= stride(s).FreshTicketLoad() <= hi, the GPU count and its
  // reciprocal, and the draining and down flags. The scans touch no stride
  // and no cluster::Server.
  struct ServerLoad {
    Tickets lo;
    Tickets hi;
    double inv_gpus;       // fl(1 / gpus): per-GPU bounds multiply (see PerGpuLower)
    uint32_t entries = 0;  // the stride's resident entries, which the bounds' slack scales with
    uint16_t gpus = 0;
    uint8_t draining = 0;
    uint8_t down = 0;
  };
  const ServerLoad& server_load(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < loads_.size());
    return loads_[server.value()];
  }
  // The server's exact ticket load: its point bound, or else a re-sum
  // through stride(s).TicketLoad(), after which the bound is that point.
  Tickets ExactTicketLoad(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < loads_.size());
    return ExactTicketLoad(server.value(), &ticket_load_resums_);
  }
  // Re-sums readers have triggered (a stale stride cache that
  // ExactTicketLoad re-summed). Tests read it to pin that a query's
  // re-sums do not scale with the pool.
  int64_t ticket_load_resums() const { return ticket_load_resums_; }

  // --- queries ---
  // Normalized ticket load (tickets per physical GPU), re-summed through the
  // stride's cache. A bare double on purpose: a dimensionless load key.
  double NormTicketLoad(ServerId server) const;  // gfair-lint: allow(raw-double-in-sched-api)

  // The server of `servers` with the least (ticket load per GPU, id) among
  // those with at least `min_gpus` GPUs, neither draining nor down, and not
  // `exclude`. One scan of the load records; a server is re-summed only if
  // its lower bound reaches both the least upper bound and the least exact
  // load seen before it. Invalid when none qualifies.
  ServerId LeastLoadedAmong(const std::vector<ServerId>& servers, int min_gpus,
                            ServerId exclude = ServerId::Invalid()) const;
  // The least-loaded qualifying server of the whole pool `gen`.
  ServerId LeastLoadedServer(cluster::GpuGeneration gen, int min_gpus,
                             ServerId exclude = ServerId::Invalid()) const;
  // Placement's server choice: the least (occupancy, ticket load per GPU,
  // id) over the pool's servers with at least `min_gpus` GPUs that are
  // neither draining nor down — the least-loaded server of the lowest
  // occupancy group holding one. Invalid when none qualifies.
  ServerId LeastOccupiedServer(cluster::GpuGeneration gen, int min_gpus) const;

  // One fairness round of the load balancer over `servers` (one pool, in
  // servers_of order), whose per-GPU load counts `pending[i]` in-flight
  // tickets at position i: whether the spread max - min of the eligible
  // (neither draining nor down) servers' loads is within
  // threshold * max(average over all positions, 1e-9), and if not, the
  // first positions holding the maximum and the minimum and those loads.
  struct LoadSpread {
    bool balanced = true;
    size_t max_pos = 0;
    size_t min_pos = 0;
    Tickets max_load;
    Tickets min_load;
  };
  LoadSpread ScanLoadSpread(const std::vector<ServerId>& servers,
                            const std::vector<Tickets>& pending,
                            double threshold) const;  // gfair-lint: allow(raw-double-in-sched-api) -- a dimensionless ratio

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
  // Moves `server`'s bounds across an event that changes its real load by
  // an amount within `shift` and leaves it `entries_after` entries; called
  // before the event reaches the stride. A load of n entries is within n + 1
  // roundings of its real value R (load_bound.h): bound R by
  // LowerOf(lo, n + 1), add the shift, and bound the float load of the n'
  // entries after the event from that sum, which rounded once more, by
  // LowerOf(sum, n' + 2). UpperOf mirrors each step.
  void ShiftLoadBound(ServerId server, LoadShift shift, uint32_t entries_after) {
    ServerLoad& bound = loads_[server.value()];
    if (entries_after == 0) {
      bound.lo = bound.hi = 0.0;  // an empty server sums to exactly 0
      bound.entries = 0;
      return;
    }
    if (const Tickets* cached = strides_[server.value()].CachedTicketLoad()) {
      bound.lo = bound.hi = *cached;  // restart from the exact load
    }
    const double slack_before = static_cast<double>(bound.entries + 2) * 0x1p-52;
    const double slack_after = static_cast<double>(entries_after + 3) * 0x1p-52;
    const Tickets real_lo = bound.lo * (1.0 - slack_before) + shift.lo;
    const Tickets real_hi = bound.hi * (1.0 + slack_before) + shift.hi;
    bound.lo = real_lo <= 0.0 ? Tickets(0.0) : real_lo * (1.0 - slack_after);
    bound.hi = real_hi * (1.0 + slack_after);
    bound.entries = entries_after;
  }
  // Bounds on the per-GPU load fl(fl(L + pending) / gpus) of a server whose
  // load L lies in `bound`, by multiplying with the reciprocal: IEEE + and
  // / are monotone, and x * (inv_gpus * (1 -+ 2^-50)) is within the four
  // roundings that LowerOf(., 3) and UpperOf(., 3) absorb of x / gpus.
  static Tickets PerGpuLower(const ServerLoad& bound, Tickets pending) {
    return (bound.lo + pending) * (bound.inv_gpus * (1.0 - 0x1p-50));
  }
  static Tickets PerGpuUpper(const ServerLoad& bound, Tickets pending) {
    return (bound.hi + pending) * (bound.inv_gpus * (1.0 + 0x1p-50));
  }
  // The same without pending tickets: fl(L / gpus).
  static Tickets PerGpuLower(const ServerLoad& bound) {
    return bound.lo * (bound.inv_gpus * (1.0 - 0x1p-50));
  }
  static Tickets PerGpuUpper(const ServerLoad& bound) {
    return bound.hi * (bound.inv_gpus * (1.0 + 0x1p-50));
  }
  // ExactTicketLoad of server index `s`, counting a re-sum in `*resums` (a
  // scan keeps its count in a local and adds it once).
  Tickets ExactTicketLoad(size_t s, int64_t* resums) const {
    ServerLoad& bound = loads_[s];
    if (bound.lo != bound.hi) {
      const LocalStrideScheduler& stride = strides_[s];
      *resums += stride.CachedTicketLoad() == nullptr ? 1 : 0;
      bound.lo = bound.hi = stride.TicketLoad();
    }
    return bound.lo;
  }
  // True when positions `a` and `b` of a spread scan are known, without a
  // division, to have equal exact per-GPU loads: both bounds are the same
  // point, over the same GPU count, with the same pending tickets.
  bool SameExactLoad(const std::vector<ServerId>& servers, const std::vector<Tickets>& pending,
                     size_t a, size_t b) const;
  // Moves `server` into or out of its pool's oversubscribed set after a
  // membership change.
  void UpdateOversubscribed(ServerId server);
  // Moves `server` to the group of its current occupancy if that changed.
  void UpdateOccupancyGroup(ServerId server);
  void JoinOccupancyGroup(ServerId server, double occupancy);
  void LeaveOccupancyGroup(ServerId server);
  void MarkPlanDirty(ServerId server) { plan_dirty_[server.value()] = 1; }

  const cluster::Cluster& cluster_;
  std::vector<LocalStrideScheduler> strides_;  // indexed by ServerId value
  // Indexed by ServerId value. Mutable: ExactTicketLoad narrows a bound to
  // its point, which changes no answer.
  mutable std::vector<ServerLoad> loads_;
  mutable int64_t ticket_load_resums_ = 0;
  int num_draining_ = 0;
  int num_down_ = 0;
  // uint8_t, not vector<bool>: read once per server per quantum.
  std::vector<uint8_t> plan_dirty_;
  cluster::PerGeneration<std::set<ServerId>> oversubscribed_;
  cluster::PerGeneration<std::vector<OccupancyGroup>> occupancy_groups_;
  std::vector<double> occupancy_;         // the key of each server's group
  std::vector<uint32_t> occupancy_slot_;  // its position in that group

  // ScanLoadSpread's scratch: positions kept as candidates for an extreme,
  // with the bound that kept them.
  struct Candidate {
    size_t at;
    Tickets bound;
  };
  mutable std::vector<Candidate> low_candidates_;
  mutable std::vector<Candidate> high_candidates_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_CLUSTER_STATE_INDEX_H_
