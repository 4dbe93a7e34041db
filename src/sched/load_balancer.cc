#include "sched/load_balancer.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "sched/gandiva_fair.h"

namespace gfair::sched {

using cluster::GpuGeneration;
using cluster::kAllGenerations;
using workload::Job;

LoadBalancer::LoadBalancer(const SchedulerEnv& env, const GandivaFairConfig& config,
                           ClusterStateIndex& index, ResidencyIndex& residency,
                           ISchedulerHost& host)
    : env_(env), config_(config), index_(index), residency_(residency), host_(host) {}

void LoadBalancer::Balance() {
  const SimTime now = env_.sim.Now();
  DrainBatch();  // evacuate draining servers first
  for (GpuGeneration gen : kAllGenerations) {
    const auto& servers = env_.cluster.servers_of(gen);
    if (servers.size() < 2) {
      continue;
    }

    // Pass 1 — work conservation: a server whose residents demand more GPUs
    // than it has, next to a server with spare GPUs, wastes capacity that no
    // amount of local time-slicing can recover. Move waiting (suspended)
    // jobs from oversubscribed servers onto idle GPUs. The scan stays linear
    // (pending demand from this round's in-flight moves has no home in the
    // load index) but every load read is O(1) cached. The in-flight sums
    // are dense scratch indexed by position in `servers`.
    pending_demand_.assign(servers.size(), 0.0);  // in-flight arrivals
    for (int round = 0; round < config_.max_migrations_per_round; ++round) {
      ServerId src = ServerId::Invalid();
      size_t dst = servers.size();
      double worst_overflow = 0.5;  // demand beyond capacity, in GPUs
      double best_spare = 0.999;    // idle GPUs worth of headroom
      for (size_t i = 0; i < servers.size(); ++i) {
        const ServerId id = servers[i];
        if (index_.draining(id) || index_.down(id)) {
          continue;
        }
        const auto& server = env_.cluster.server(id);
        const double demand = index_.stride(id).DemandLoad() + pending_demand_[i];
        const double overflow = demand - server.num_gpus();
        const double spare = server.num_gpus() - demand;
        if (overflow > worst_overflow) {
          worst_overflow = overflow;
          src = id;
        }
        if (spare > best_spare) {
          best_spare = spare;
          dst = i;
        }
      }
      if (!src.valid() || dst == servers.size()) {
        break;
      }
      // Largest suspended gang that fits the destination's headroom.
      JobId candidate = JobId::Invalid();
      int candidate_gang = 0;
      for (JobId id : index_.stride(src).ResidentJobs()) {
        if (env_.exec.IsRunning(id)) {
          continue;
        }
        const Job& job = env_.jobs.Get(id);
        const ResidencyIndex::JobInfo& info = residency_.Info(id);
        if (info.precopying ||
            now - info.last_migration < config_.min_migration_interval) {
          continue;
        }
        if (job.gang_size <= best_spare + 1e-9 && job.gang_size > candidate_gang) {
          candidate = id;
          candidate_gang = job.gang_size;
        }
      }
      if (!candidate.valid()) {
        break;
      }
      pending_demand_[dst] += candidate_gang;
      host_.EmitMigration(candidate, servers[dst], MigrationCause::kConserve);
    }

    // Pass 2 — fairness: even out per-server ticket load so every resident
    // job's stride share is realizable. Tickets already in flight toward a
    // destination this round, by position in `servers`. Loads stay in ticket
    // space (per-GPU normalized by a dimensionless GPU count), so the whole
    // pass is unit-typed. Each round's extremes and balance test come from
    // one scan of the index's load bounds (ScanLoadSpread), which re-sums
    // only the servers that can hold an extreme.
    pending_tickets_.assign(servers.size(), Tickets(0.0));

    for (int round = 0; round < config_.max_migrations_per_round; ++round) {
      const ClusterStateIndex::LoadSpread spread =
          index_.ScanLoadSpread(servers, pending_tickets_, config_.balance_threshold);
      if (spread.balanced) {
        break;
      }
      const ServerId max_server = servers[spread.max_pos];
      const size_t min_index = spread.min_pos;
      const Tickets max_load = spread.max_load;
      const Tickets min_load = spread.min_load;

      // Candidate = resident job on the hottest server whose move shrinks the
      // gap the most and still leaves the destination cooler than the source
      // was.
      const ServerId min_server = servers[min_index];
      const double src_gpus = env_.cluster.server(max_server).num_gpus();
      const double dst_gpus = env_.cluster.server(min_server).num_gpus();
      JobId best = JobId::Invalid();
      Tickets best_gap = max_load - min_load;
      for (JobId id : index_.stride(max_server).ResidentJobs()) {
        const Job& job = env_.jobs.Get(id);
        const ResidencyIndex::JobInfo& info = residency_.Info(id);
        if (info.precopying ||
            now - info.last_migration < config_.min_migration_interval) {
          continue;
        }
        if (env_.cluster.server(min_server).num_gpus() < job.gang_size) {
          continue;
        }
        const Tickets tickets = index_.stride(max_server).TicketsOf(id);
        const Tickets new_src = max_load - tickets / src_gpus;
        const Tickets new_dst = min_load + tickets / dst_gpus;
        if (new_dst >= max_load) {
          continue;  // would just swap the hot spot
        }
        const Tickets gap = Abs(new_src - new_dst);
        if (gap < best_gap) {
          best_gap = gap;
          best = id;
        }
      }
      if (!best.valid()) {
        break;
      }
      pending_tickets_[min_index] += index_.stride(max_server).TicketsOf(best);
      host_.EmitMigration(best, min_server, MigrationCause::kBalance);
    }
  }
}

void LoadBalancer::DrainBatch() {
  if (!index_.AnyDraining()) {
    return;
  }
  const SimTime now = env_.sim.Now();
  for (size_t s = 0; s < index_.num_servers(); ++s) {
    const ServerId source(static_cast<uint32_t>(s));
    if (!index_.draining(source)) {
      continue;
    }
    const cluster::GpuGeneration gen = env_.cluster.server(source).generation();
    // Bounded batch: residents leave over successive balance ticks so the
    // migration network is not swamped.
    int budget = config_.max_migrations_per_round;
    // Copy: EmitMigration below removes jobs from this stride scheduler,
    // invalidating its cached resident vector.
    const std::vector<JobId> resident = index_.stride(source).ResidentJobs();
    for (JobId id : resident) {
      if (budget <= 0) {
        break;
      }
      const Job& job = env_.jobs.Get(id);
      if (residency_.Info(id).precopying) {
        continue;  // an in-flight pre-copy will move (or release) it shortly
      }
      // Least-loaded non-draining server of the pool that fits the gang —
      // one scan of the pool's load bounds.
      const ServerId dest = index_.LeastLoadedServer(gen, job.gang_size, source);
      if (!dest.valid()) {
        GFAIR_WLOG << "drain: no destination for job " << id << " at "
                   << FormatDuration(now) << "; leaving it in place";
        continue;
      }
      host_.EmitMigration(id, dest, MigrationCause::kBalance);
      --budget;
    }
  }
}

}  // namespace gfair::sched
