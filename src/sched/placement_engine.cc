#include "sched/placement_engine.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/log.h"
#include "sched/gandiva_fair.h"

namespace gfair::sched {

using cluster::GpuGeneration;
using workload::Job;

namespace {
// Entitlement floor when scoring pools so that fully-traded-away pools score
// astronomically bad instead of dividing by zero.
constexpr double kEntitlementFloor = 0.01;
}  // namespace

PlacementEngine::PlacementEngine(const SchedulerEnv& env, const GandivaFairConfig& config,
                                 ClusterStateIndex& index, ResidencyIndex& residency,
                                 ISchedulerHost& host)
    : env_(env), config_(config), index_(index), residency_(residency), host_(host) {
  last_steal_.assign(static_cast<size_t>(env_.cluster.num_servers()),
                     -(int64_t{1} << 60));
}

ServerId PlacementEngine::ChoosePlacement(const Job& job) const {
  // Pool choice: keep the user's per-pool resident demand proportional to its
  // per-pool entitlement, preferring faster generations on ties (we iterate
  // fastest-first and only accept strictly better scores).
  ServerId best_server = ServerId::Invalid();
  double best_score = std::numeric_limits<double>::infinity();

  const auto& model = env_.zoo.Get(job.model);
  for (size_t g = cluster::kNumGenerations; g-- > 0;) {
    const GpuGeneration gen = cluster::kAllGenerations[g];
    if (env_.cluster.total_gpus(gen) == 0 || !model.FitsGeneration(gen)) {
      continue;
    }
    // Cheapest server of the pool that can ever host the gang; residency is
    // oversubscribed (time slicing), so "fits" means physical GPU count.
    // While the pool has idle capacity, occupancy (resident demand per GPU)
    // is the signal — idle GPUs must attract work. Once every server is
    // saturated, ticket load is the signal: a new job's realized share is
    // its tickets relative to its server's ticket density, so packing by
    // "fewest jobs" would herd heavy-ticket users together and dilute them.
    // The scan stays linear in the pool size (the two-key epsilon comparison
    // has no total order to index on), but each load read is O(1) now.
    ServerId candidate = ServerId::Invalid();
    double candidate_demand = std::numeric_limits<double>::infinity();
    Tickets candidate_tickets = std::numeric_limits<double>::infinity();
    for (ServerId id : env_.cluster.servers_of(gen)) {
      const auto& server = env_.cluster.server(id);
      if (server.num_gpus() < job.gang_size || index_.draining(id) ||
          index_.down(id)) {
        continue;
      }
      const double gpus = server.num_gpus();
      // Saturated servers compare equal on occupancy; below saturation the
      // emptier server wins.
      const double demand_load =
          std::min(1.0, index_.stride(id).DemandLoad() / gpus);
      const Tickets ticket_load = index_.stride(id).TicketLoad() / gpus;
      if (demand_load < candidate_demand - 1e-9 ||
          (demand_load < candidate_demand + 1e-9 && ticket_load < candidate_tickets)) {
        candidate_demand = demand_load;
        candidate_tickets = ticket_load;
        candidate = id;
      }
    }
    if (!candidate.valid()) {
      continue;
    }
    const double entitlement =
        std::max(host_.EntitlementGpus(job.user, gen), kEntitlementFloor);
    const double demand = residency_.ResidentDemand(job.user, gen) + job.gang_size;
    const double score = demand / entitlement;
    if (score < best_score - 1e-12) {
      best_score = score;
      best_server = candidate;
    }
  }
  return best_server;
}

void PlacementEngine::TrySteal(ServerId server) {
  const SimTime now = env_.sim.Now();
  GFAIR_CHECK(server.value() < last_steal_.size());
  if (now - last_steal_[server.value()] < config_.quantum) {
    return;  // at most one steal per server per quantum
  }
  if (index_.draining(server) || index_.down(server)) {
    return;  // draining and down servers must not attract work
  }
  const cluster::Server& host_server = env_.cluster.server(server);
  const int free = host_server.num_free();
  if (free <= 0) {
    return;
  }
  const GpuGeneration gen = host_server.generation();

  // Most oversubscribed peer holding a suspended job that fits our idle
  // GPUs. Same-pool peers first; if none, pull queued work up from SLOWER
  // pools (an upgrade is always throughput-positive given the zoo's
  // monotone rates), respecting memory feasibility.
  JobId best = JobId::Invalid();
  double best_overflow = 0.25;  // require genuine oversubscription
  auto scan_pool = [&](GpuGeneration pool) {
    // Only servers whose runnable demand exceeds their GPUs can beat the
    // initial best_overflow; the index keeps exactly those, in the
    // ascending id order of servers_of(pool), so the scan elects the same
    // peer as a walk of the whole pool.
    for (ServerId sid : index_.oversubscribed(pool)) {
      // Down peers are skipped not just because their load is stale: between
      // the server-down callback and the per-victim orphan callbacks, a dead
      // server's stride still lists jobs that the executor already queued —
      // stealing one would Migrate a non-suspended job.
      if (sid == server || index_.down(sid)) {
        continue;
      }
      const auto& peer = env_.cluster.server(sid);
      const double overflow =
          index_.stride(sid).DemandLoad() - static_cast<double>(peer.num_gpus());
      if (overflow <= best_overflow) {
        continue;
      }
      JobId candidate = JobId::Invalid();
      int candidate_gang = 0;
      for (JobId id : index_.stride(sid).ResidentJobs()) {
        if (env_.exec.IsRunning(id)) {
          continue;
        }
        const Job& job = env_.jobs.Get(id);
        if (job.gang_size > free || job.gang_size <= candidate_gang) {
          continue;
        }
        if (!env_.zoo.Get(job.model).FitsGeneration(gen)) {
          continue;
        }
        const ResidencyIndex::JobInfo& info = residency_.Info(id);
        if (info.precopying ||
            now - info.last_migration < config_.min_migration_interval) {
          continue;
        }
        candidate = id;
        candidate_gang = job.gang_size;
      }
      if (candidate.valid()) {
        best = candidate;
        best_overflow = overflow;
      }
    }
  };
  scan_pool(gen);
  if (!best.valid() && residency_.active_users().size() <= 1) {
    // Cross-pool upgrades are only a pure work-conservation move when a
    // single user is active; with multiple users, cross-pool allocation
    // belongs to the trading engine (stealing here would fight its
    // entitlements and skew shares).
    for (size_t g = 0; g < cluster::GenerationIndex(gen); ++g) {
      scan_pool(cluster::kAllGenerations[g]);
    }
  }
  if (!best.valid()) {
    return;
  }
  last_steal_[server.value()] = now;
  ++steals_started_;
  GFAIR_DLOG << "steal: job " << best << " -> server " << server;
  host_.EmitMigration(best, server, MigrationCause::kSteal);
}

}  // namespace gfair::sched
