#include "sched/cluster_state_index.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace gfair::sched {

ClusterStateIndex::ClusterStateIndex(const cluster::Cluster& cluster,
                                     const StrideConfig& stride_config)
    : cluster_(cluster) {
  const size_t n = static_cast<size_t>(cluster.num_servers());
  strides_.reserve(n);
  load_key_.assign(n, 0.0);
  pos_dirty_.assign(n, false);
  dirty_list_.reserve(n);
  draining_.assign(n, false);
  down_.assign(n, false);
  plan_dirty_.assign(n, 1);  // every server must be planned on the first tick
  occupancy_.assign(n, 0.0);
  occupancy_slot_.assign(n, 0);
  for (const auto& server : cluster.servers()) {
    GFAIR_CHECK_MSG(server.num_gpus() <= kMaxServerGpus,
                    "server exceeds kMaxServerGpus: occupancy groups would be inexact");
    strides_.emplace_back(server.num_gpus(), stride_config);
    pools_by_load_[cluster::GenerationIndex(server.generation())].emplace(0.0,
                                                                          server.id());
    JoinOccupancyGroup(server.id(), 0.0);
  }
}

double ClusterStateIndex::Occupancy(ServerId server) const {
  const LocalStrideScheduler& s = stride(server);
  return std::min(1.0, s.DemandLoad() / static_cast<double>(s.num_gpus()));
}

double ClusterStateIndex::NormTicketLoad(ServerId server) const {
  // Unwrap at the ordering-key boundary: the pool sets are keyed by double.
  return (stride(server).TicketLoad() /
          static_cast<double>(cluster_.server(server).num_gpus())).raw();  // gfair-lint: allow(unit-unwrap-outside-boundary)
}

void ClusterStateIndex::MarkDirty(ServerId server) {
  const size_t s = server.value();
  if (!pos_dirty_[s]) {
    pos_dirty_[s] = true;
    dirty_list_.push_back(server);
  }
}

void ClusterStateIndex::Flush() const {
  for (ServerId server : dirty_list_) {
    Reposition(server);
    pos_dirty_[server.value()] = false;
  }
  dirty_list_.clear();
}

void ClusterStateIndex::Reposition(ServerId server) const {
  const size_t s = server.value();
  const double key = NormTicketLoad(server);
  if (key == load_key_[s]) {
    return;
  }
  auto& pool = pools_by_load_[cluster::GenerationIndex(cluster_.server(server).generation())];
  const size_t erased = pool.erase({load_key_[s], server});
  GFAIR_CHECK_MSG(erased == 1, "server missing from its pool ordering");
  load_key_[s] = key;
  pool.emplace(key, server);
}

void ClusterStateIndex::UpdateOversubscribed(ServerId server) {
  const cluster::Server& host = cluster_.server(server);
  auto& pool = oversubscribed_[cluster::GenerationIndex(host.generation())];
  if (stride(server).DemandLoad() > host.num_gpus()) {
    pool.insert(server);
  } else {
    pool.erase(server);
  }
}

void ClusterStateIndex::UpdateOccupancyGroup(ServerId server) {
  const double occupancy = Occupancy(server);
  if (occupancy != occupancy_[server.value()]) {
    LeaveOccupancyGroup(server);
    JoinOccupancyGroup(server, occupancy);
  }
}

void ClusterStateIndex::JoinOccupancyGroup(ServerId server, double occupancy) {
  auto& groups =
      occupancy_groups_[cluster::GenerationIndex(cluster_.server(server).generation())];
  auto it = std::lower_bound(
      groups.begin(), groups.end(), occupancy,
      [](const OccupancyGroup& group, double key) { return group.occupancy < key; });
  if (it == groups.end() || occupancy < it->occupancy) {
    it = groups.insert(it, OccupancyGroup{occupancy, {}});
  }
  occupancy_[server.value()] = occupancy;
  occupancy_slot_[server.value()] = static_cast<uint32_t>(it->servers.size());
  it->servers.push_back(server);
}

void ClusterStateIndex::LeaveOccupancyGroup(ServerId server) {
  auto& groups =
      occupancy_groups_[cluster::GenerationIndex(cluster_.server(server).generation())];
  const double occupancy = occupancy_[server.value()];
  auto it = std::lower_bound(
      groups.begin(), groups.end(), occupancy,
      [](const OccupancyGroup& group, double key) { return group.occupancy < key; });
  GFAIR_CHECK_MSG(it != groups.end() && !(occupancy < it->occupancy),
                  "server missing from its occupancy group");
  std::vector<ServerId>& members = it->servers;
  const uint32_t slot = occupancy_slot_[server.value()];
  GFAIR_CHECK(slot < members.size() && members[slot] == server);
  members[slot] = members.back();
  occupancy_slot_[members[slot].value()] = slot;
  members.pop_back();
  if (members.empty()) {
    groups.erase(it);
  }
}

void ClusterStateIndex::AddJob(ServerId server, JobId id, int gang_size, double share,
                               const TicketRate* rate) {
  stride(server).AddJob(id, gang_size, share, rate);
  MarkDirty(server);
  MarkPlanDirty(server);
  UpdateOversubscribed(server);
  UpdateOccupancyGroup(server);
}

void ClusterStateIndex::RemoveJob(ServerId server, JobId id) {
  stride(server).RemoveJob(id);
  MarkDirty(server);
  MarkPlanDirty(server);
  UpdateOversubscribed(server);
  UpdateOccupancyGroup(server);
}

void ClusterStateIndex::SetDraining(ServerId server, bool draining) {
  GFAIR_CHECK(server.valid() && server.value() < draining_.size());
  if (draining_[server.value()] != draining) {
    num_draining_ += draining ? 1 : -1;
  }
  draining_[server.value()] = draining;
}

void ClusterStateIndex::SetDown(ServerId server, bool down) {
  GFAIR_CHECK(server.valid() && server.value() < down_.size());
  if (down_[server.value()] != down) {
    num_down_ += down ? 1 : -1;
    MarkPlanDirty(server);
  }
  down_[server.value()] = down;
}

ServerId ClusterStateIndex::LeastLoadedServer(cluster::GpuGeneration gen, int min_gpus,
                                              ServerId exclude) const {
  Flush();
#ifndef NDEBUG
  // The ordered set must agree with a from-scratch linear scan ("first
  // strictly smaller load wins", the pre-index selection rule).
  ServerId scan_best = ServerId::Invalid();
  double scan_load = std::numeric_limits<double>::infinity();
  for (ServerId sid : cluster_.servers_of(gen)) {
    if (sid == exclude || draining_[sid.value()] || down_[sid.value()] ||
        cluster_.server(sid).num_gpus() < min_gpus) {
      continue;
    }
    const double load = NormTicketLoad(sid);
    if (load < scan_load) {
      scan_load = load;
      scan_best = sid;
    }
  }
#endif
  ServerId best = ServerId::Invalid();
  for (const auto& [load, sid] : pools_by_load_[cluster::GenerationIndex(gen)]) {
    if (sid == exclude || draining_[sid.value()] || down_[sid.value()] ||
        cluster_.server(sid).num_gpus() < min_gpus) {
      continue;
    }
    best = sid;
    break;
  }
  GFAIR_DCHECK_MSG(best == scan_best,
                   "pool ordering disagrees with linear least-loaded scan");
  return best;
}

}  // namespace gfair::sched
