// ResidencyIndex — who lives where, and what each user demands.
//
// Owns the per-job scheduler bookkeeping (home server, charge/migration
// timestamps) and the per-user aggregates the monolith used to recompute by
// walking job sets on every read:
//  * per-user per-pool resident job lists (the ground truth), kept in
//    ascending id order so every walk over them — float accumulations and
//    candidate scans alike — is deterministic without a per-walk sort,
//  * per-user per-pool resident GPU demand (sum of gang sizes — incremental,
//    exact because it is a sum of small integers),
//  * per-user per-pool weighted resident demand (sum of gang x weight —
//    cached with a dirty flag and recomputed in id order, so the value is
//    bit-identical to the recompute-on-read the monolith did),
//  * per-user per-pool published TicketRate (stride.h): the slot every
//    resident entry of the pool reads its tickets through. The facade
//    writes it; the address is stable for the index's lifetime,
//  * per-user per-pool hosting sets: each server hosting at least one of
//    the user's resident pool jobs, once, with the number it hosts and the
//    sum of their shares (a ShareSum, load_bound.h). A rate re-pricing
//    shifts these servers' ticket loads by that sum — one visit per server,
//    not per job. Each server also lists the users it hosts, with
//    their slots in those sets, so Attach/Detach find their entry in
//    O(users on the server); memory is O(hosting (user, pool, server)
//    triples), never a cluster-sized array per user,
//  * per-user unfinished-job counts, total outstanding demand, and the
//    sorted active-user set.
//
// In debug builds every cached aggregate is asserted against a full
// recompute at read time.
#ifndef GFAIR_SCHED_RESIDENCY_INDEX_H_
#define GFAIR_SCHED_RESIDENCY_INDEX_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "cluster/gpu.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "sched/load_bound.h"
#include "sched/stride.h"
#include "workload/job.h"

namespace gfair::sched {

class ResidencyIndex {
 public:
  struct JobInfo {
    ServerId home = ServerId::Invalid();  // resident/destination server
    // Immutable copies of the job's model and gang size (set at
    // registration). When trade epochs run, the quantum's charge walk
    // buffers a profiler sample per running job and needs both; carrying
    // them here spares it a JobTable load per job.
    workload::ModelId model = workload::ModelId::Invalid();
    // The charge clock between residencies. While the job is resident its
    // stride entry holds the instant (LocalStrideScheduler::ChargeThrough);
    // the facade saves it here at detach and seeds the next entry from it at
    // attach, and nothing else reads or writes it.
    SimTime last_charge = kTimeZero;
    SimTime last_migration;  // initialized to "long ago"
    int gang_size = 0;
    bool migrating = false;
    // An outstanding pre-copy claim: the bulk checkpoint transfer is in
    // flight while the job stays resident (and schedulable) at `home`.
    // Cleared at cutover, at abandonment (finish/orphan/failure), or when
    // the scheduler drops the claim. A precopying job is never picked as a
    // migration candidate and never carries `migrating` at the same time.
    bool precopying = false;
  };

  explicit ResidencyIndex(const workload::JobTable& jobs) : jobs_(jobs) {}

  // --- job lifecycle ---
  // Registers an arriving job (unfinished count, total demand, JobInfo with
  // last_migration = long ago). Returns true when the user just became
  // active (its first unfinished job).
  bool RegisterJob(JobId id, UserId user, int gang_size);
  // The inverse, at job completion. Returns true when the user just became
  // inactive.
  bool DeregisterJob(JobId id, UserId user, int gang_size);

  // Defined inline: read per resident job per quantum.
  JobInfo& Info(JobId id) {
    GFAIR_CHECK_MSG(id.value() < job_info_.size() && job_registered_[id.value()],
                    "unknown job");
    return job_info_[id.value()];
  }
  const JobInfo& Info(JobId id) const {
    GFAIR_CHECK_MSG(id.value() < job_info_.size() && job_registered_[id.value()],
                    "unknown job");
    return job_info_[id.value()];
  }

  // Cache hint for an upcoming Info() call in a walk over scattered job ids.
  // No effect on behavior.
  void PrefetchInfo(JobId id) const {
    if (id.value() < job_info_.size()) {
      __builtin_prefetch(&job_info_[id.value()]);
    }
  }

  // --- pool residency (ground truth for demand aggregates) ---
  // `server` is the job's home, a server of pool `gen`.
  void Attach(UserId user, cluster::GpuGeneration gen, JobId id, ServerId server);
  void Detach(UserId user, cluster::GpuGeneration gen, JobId id, ServerId server);
  // The user's resident jobs on a pool in ascending id order; empty when the
  // user is unknown. Invalidated by Attach/Detach — callers that migrate
  // while walking must take a copy first.
  const std::vector<JobId>& PoolJobs(UserId user, cluster::GpuGeneration gen) const;

  // A server hosting `jobs` >= 1 of a (user, pool)'s resident jobs, whose
  // shares (gang x weight) sum to `shares`.
  struct Host {
    ServerId server;
    int jobs;
    ShareSum shares;
  };
  // The servers hosting the user's resident jobs on a pool, each once, in
  // no particular order; empty when the user is unknown. Invalidated by
  // Attach/Detach.
  const std::vector<Host>& PoolHosts(UserId user, cluster::GpuGeneration gen) const;

  // A job's weighted GPU demand (gang x weight): its share of its user's
  // pool tickets and its term in WeightedResidentDemand.
  static double ShareOf(const workload::Job& job) { return job.gang_size * job.weight; }

  // The user's published ticket rate on a pool. The slot is created on first
  // use and never moves, so resident stride entries may hold its address.
  TicketRate& PoolRate(UserId user, cluster::GpuGeneration gen) {
    return user_pools_[user].rate[cluster::GenerationIndex(gen)];
  }

  // --- aggregates ---
  // Resident GPU demand of `user` on `gen` (sum of gang sizes). O(1).
  double ResidentDemand(UserId user, cluster::GpuGeneration gen) const;
  // Resident demand weighted by job weight (sum of gang x weight). O(1)
  // amortized (cached; recomputed once per residency change).
  double WeightedResidentDemand(UserId user, cluster::GpuGeneration gen) const;
  // Total outstanding GPU demand (includes in-flight migrations, which are
  // resident in no pool set). O(1).
  double TotalDemand(UserId user) const;
  int UnfinishedJobs(UserId user) const;

  // Users with at least one unfinished job, ascending. The set itself is
  // maintained incrementally; ActiveUsers() materializes the sorted vector
  // the monolith rebuilt per call.
  const std::set<UserId>& active_users() const { return active_users_; }
  std::vector<UserId> ActiveUsers() const {
    return std::vector<UserId>(active_users_.begin(), active_users_.end());
  }

 private:
  struct UserPools {
    cluster::PerGeneration<std::vector<JobId>> jobs;  // ascending ids
    // Each listed job's gang x weight, parallel to `jobs`: the weighted
    // demand recompute sums this contiguous array instead of chasing every
    // job's record.
    cluster::PerGeneration<std::vector<double>> shares;
    cluster::PerGeneration<std::vector<Host>> hosts;  // unordered
    cluster::PerGeneration<TicketRate> rate{};
    cluster::PerGeneration<double> resident_demand{};
    mutable cluster::PerGeneration<double> weighted_demand{};
    mutable cluster::PerGeneration<bool> weighted_dirty{};
  };

  // A user hosted on a server, with its slot in that (user, pool)'s hosts.
  struct HostedUser {
    UserId user;
    uint32_t slot;
  };
  HostedUser* FindHostedUser(ServerId server, UserId user);

  const workload::JobTable& jobs_;
  // Dense, indexed by job id; slots are created by RegisterJob and never
  // erased (the monolith kept every job's info alive too, and references
  // from Info() must stay valid across detach/deregister). Info() is called
  // for every resident job every quantum — a hash probe per call dominates.
  std::vector<JobInfo> job_info_;
  std::vector<bool> job_registered_;
  // Node-based: PoolRate() addresses stay valid as users are added.
  std::unordered_map<UserId, UserPools> user_pools_;
  std::unordered_map<UserId, int> user_unfinished_jobs_;
  std::unordered_map<UserId, double> user_total_demand_;
  std::set<UserId> active_users_;
  // Indexed by server id, grown on demand; a server's generation is fixed,
  // so the user alone names the (user, pool) hosting set.
  std::vector<std::vector<HostedUser>> server_users_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_RESIDENCY_INDEX_H_
