#include "sched/residency_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace gfair::sched {

namespace {
// "Long ago" sentinel for last_migration so fresh jobs pass interval checks.
constexpr SimTime kLongAgo = -(int64_t{1} << 60);
}  // namespace

bool ResidencyIndex::RegisterJob(JobId id, UserId user, int gang_size) {
  if (id.value() >= job_info_.size()) {
    job_info_.resize(id.value() + 1);
    job_registered_.resize(id.value() + 1, false);
  }
  GFAIR_CHECK_MSG(!job_registered_[id.value()], "job already registered");
  JobInfo info;
  info.model = jobs_.Get(id).model;
  info.gang_size = gang_size;
  info.last_migration = kLongAgo;
  job_info_[id.value()] = info;
  job_registered_[id.value()] = true;

  const int count = (user_unfinished_jobs_[user] += 1);
  user_total_demand_[user] += gang_size;
  if (count == 1) {
    active_users_.insert(user);
    return true;
  }
  return false;
}

bool ResidencyIndex::DeregisterJob(JobId id, UserId user, int gang_size) {
  Info(id).home = ServerId::Invalid();

  auto it = user_unfinished_jobs_.find(user);
  GFAIR_CHECK(it != user_unfinished_jobs_.end() && it->second > 0);
  it->second -= 1;
  user_total_demand_[user] -= gang_size;
  if (it->second == 0) {
    active_users_.erase(user);
    return true;
  }
  return false;
}

ResidencyIndex::HostedUser* ResidencyIndex::FindHostedUser(ServerId server,
                                                          UserId user) {
  if (server.value() >= server_users_.size()) {
    return nullptr;
  }
  for (HostedUser& hosted : server_users_[server.value()]) {
    if (hosted.user == user) {
      return &hosted;
    }
  }
  return nullptr;
}

void ResidencyIndex::Attach(UserId user, cluster::GpuGeneration gen, JobId id,
                            ServerId server) {
  GFAIR_CHECK(server.valid());
  const size_t g = cluster::GenerationIndex(gen);
  UserPools& pools = user_pools_[user];
  std::vector<JobId>& jobs = pools.jobs[g];
  const auto pos = std::lower_bound(jobs.begin(), jobs.end(), id);
  GFAIR_CHECK_MSG(pos == jobs.end() || *pos != id, "job already attached");
  const workload::Job& job = jobs_.Get(id);
  pools.shares[g].insert(pools.shares[g].begin() + (pos - jobs.begin()),
                         ShareOf(job));
  jobs.insert(pos, id);
  pools.resident_demand[g] += job.gang_size;
  pools.weighted_dirty[g] = true;

  std::vector<Host>& hosts = pools.hosts[g];
  if (HostedUser* hosted = FindHostedUser(server, user)) {
    hosts[hosted->slot].jobs += 1;
    hosts[hosted->slot].shares.Add(ShareOf(job));
    return;
  }
  if (server.value() >= server_users_.size()) {
    server_users_.resize(server.value() + 1);
  }
  server_users_[server.value()].push_back(
      HostedUser{user, static_cast<uint32_t>(hosts.size())});
  hosts.push_back(Host{server, 1, ShareSum{}});
  hosts.back().shares.Add(ShareOf(job));
}

void ResidencyIndex::Detach(UserId user, cluster::GpuGeneration gen, JobId id,
                            ServerId server) {
  const size_t g = cluster::GenerationIndex(gen);
  auto it = user_pools_.find(user);
  GFAIR_CHECK_MSG(it != user_pools_.end(), "detach for unknown user");
  std::vector<JobId>& jobs = it->second.jobs[g];
  const auto pos = std::lower_bound(jobs.begin(), jobs.end(), id);
  GFAIR_CHECK_MSG(pos != jobs.end() && *pos == id, "detach of a job not attached");
  std::vector<double>& shares = it->second.shares[g];
  const auto share = shares.begin() + (pos - jobs.begin());
  const double leaving = *share;
  shares.erase(share);
  jobs.erase(pos);
  it->second.resident_demand[g] -= jobs_.Get(id).gang_size;
  it->second.weighted_dirty[g] = true;

  HostedUser* hosted = FindHostedUser(server, user);
  GFAIR_CHECK_MSG(hosted != nullptr, "detach from a server hosting none of the user's jobs");
  std::vector<Host>& hosts = it->second.hosts[g];
  const uint32_t slot = hosted->slot;
  GFAIR_CHECK(slot < hosts.size() && hosts[slot].server == server);
  hosts[slot].shares.Remove(leaving);
  if (--hosts[slot].jobs > 0) {
    return;
  }
  // The server hosts none of the user's pool jobs any more: swap-remove it
  // from the hosting set (re-pointing the moved server's slot), then drop
  // the user from the server's list.
  hosts[slot] = hosts.back();
  hosts.pop_back();
  if (slot < hosts.size()) {
    FindHostedUser(hosts[slot].server, user)->slot = slot;
  }
  std::vector<HostedUser>& users = server_users_[server.value()];
  *hosted = users.back();
  users.pop_back();
}

const std::vector<JobId>& ResidencyIndex::PoolJobs(UserId user,
                                                   cluster::GpuGeneration gen) const {
  static const std::vector<JobId> kEmpty;
  auto it = user_pools_.find(user);
  if (it == user_pools_.end()) {
    return kEmpty;
  }
  return it->second.jobs[cluster::GenerationIndex(gen)];
}

const std::vector<ResidencyIndex::Host>& ResidencyIndex::PoolHosts(
    UserId user, cluster::GpuGeneration gen) const {
  static const std::vector<Host> kEmpty;
  auto it = user_pools_.find(user);
  if (it == user_pools_.end()) {
    return kEmpty;
  }
  return it->second.hosts[cluster::GenerationIndex(gen)];
}

double ResidencyIndex::ResidentDemand(UserId user, cluster::GpuGeneration gen) const {
  auto it = user_pools_.find(user);
  if (it == user_pools_.end()) {
    return 0.0;
  }
  const size_t g = cluster::GenerationIndex(gen);
#ifndef NDEBUG
  // Debug cross-check summing small ints (exact in double, so the == compare
  // is sound here).
  double recompute = 0.0;
  for (JobId id : it->second.jobs[g]) {
    recompute += jobs_.Get(id).gang_size;
  }
  GFAIR_DCHECK_MSG(recompute == it->second.resident_demand[g],  // gfair-lint: allow(float-eq)
                   "incremental resident demand drifted from full recompute");
#endif
  return it->second.resident_demand[g];
}

double ResidencyIndex::WeightedResidentDemand(UserId user,
                                              cluster::GpuGeneration gen) const {
  auto it = user_pools_.find(user);
  if (it == user_pools_.end()) {
    return 0.0;
  }
  const size_t g = cluster::GenerationIndex(gen);
  const UserPools& pools = it->second;
  if (pools.weighted_dirty[g]) {
    // Recomputed in ascending job-id order (the list's own order): this is a
    // float accumulation that feeds per-job tickets, so its summation order
    // must be fixed. Id order makes cached reads bit-identical to uncached
    // ones and across platforms; the frozen legacy oracle sums in the same
    // order.
    double total = 0.0;
    for (double share : pools.shares[g]) {
      total += share;
    }
    pools.weighted_demand[g] = total;
    pools.weighted_dirty[g] = false;
  }
  return pools.weighted_demand[g];
}

double ResidencyIndex::TotalDemand(UserId user) const {
  auto it = user_total_demand_.find(user);
  return it != user_total_demand_.end() ? it->second : 0.0;
}

int ResidencyIndex::UnfinishedJobs(UserId user) const {
  auto it = user_unfinished_jobs_.find(user);
  return it != user_unfinished_jobs_.end() ? it->second : 0;
}

}  // namespace gfair::sched
