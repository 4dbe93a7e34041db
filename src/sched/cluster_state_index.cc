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
  loads_.reserve(n);
  plan_dirty_.assign(n, 1);  // every server must be planned on the first tick
  occupancy_.assign(n, 0.0);
  occupancy_slot_.assign(n, 0);
  for (const auto& server : cluster.servers()) {
    GFAIR_CHECK_MSG(server.num_gpus() <= kMaxServerGpus,
                    "server exceeds kMaxServerGpus: occupancy groups would be inexact");
    strides_.emplace_back(server.num_gpus(), stride_config);
    // An empty server's load is exactly 0.
    ServerLoad bound{Tickets(0.0), Tickets(0.0), 1.0 / server.num_gpus()};
    bound.gpus = static_cast<uint16_t>(server.num_gpus());
    loads_.push_back(bound);
    JoinOccupancyGroup(server.id(), 0.0);
  }
}

double ClusterStateIndex::Occupancy(ServerId server) const {
  const LocalStrideScheduler& s = stride(server);
  return std::min(1.0, s.DemandLoad() / static_cast<double>(s.num_gpus()));
}

double ClusterStateIndex::NormTicketLoad(ServerId server) const {
  // Unwrap at the load-key boundary: a dimensionless per-GPU load.
  return (stride(server).TicketLoad() /
          static_cast<double>(cluster_.server(server).num_gpus())).raw();  // gfair-lint: allow(unit-unwrap-outside-boundary)
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
                               const TicketRate* rate, SimTime last_charge) {
  GFAIR_CHECK(rate != nullptr);
  ServerLoad& bound = loads_[server.value()];
  const Tickets tickets = rate->TicketsFor(share);  // two roundings of T*s/max(D, s)
  if (bound.entries == 0) {
    bound.lo = bound.hi = tickets;  // 0 + t is exact
    bound.entries = 1;
  } else {
    ShiftLoadBound(server, LoadShift{LowerOf(tickets, 2), UpperOf(tickets, 2)},
                   bound.entries + 1);
  }
  stride(server).AddJob(id, gang_size, share, rate, last_charge);
  MarkPlanDirty(server);
  UpdateOversubscribed(server);
  UpdateOccupancyGroup(server);
}

void ClusterStateIndex::RemoveJob(ServerId server, JobId id) {
  LocalStrideScheduler& s = stride(server);
  GFAIR_CHECK_MSG(s.Contains(id), "RemoveJob on unknown job");
  const Tickets tickets = s.TicketsOf(id);
  ShiftLoadBound(server, LoadShift{-UpperOf(tickets, 2), -LowerOf(tickets, 2)},
                 loads_[server.value()].entries - 1);
  s.RemoveJob(id);
  MarkPlanDirty(server);
  UpdateOversubscribed(server);
  UpdateOccupancyGroup(server);
}

void ClusterStateIndex::SetDraining(ServerId server, bool draining) {
  GFAIR_CHECK(server.valid() && server.value() < loads_.size());
  uint8_t& flag = loads_[server.value()].draining;
  if ((flag != 0) != draining) {
    num_draining_ += draining ? 1 : -1;
  }
  flag = draining ? 1 : 0;
}

void ClusterStateIndex::SetDown(ServerId server, bool down) {
  GFAIR_CHECK(server.valid() && server.value() < loads_.size());
  uint8_t& flag = loads_[server.value()].down;
  if ((flag != 0) != down) {
    num_down_ += down ? 1 : -1;
    MarkPlanDirty(server);
  }
  flag = down ? 1 : 0;
}

ServerId ClusterStateIndex::LeastLoadedAmong(const std::vector<ServerId>& servers,
                                             int min_gpus, ServerId exclude) const {
  const auto eligible = [&](ServerId id, const ServerLoad& bound) {
    return bound.draining == 0 && bound.down == 0 && bound.gpus >= min_gpus && id != exclude;
  };
  // The least upper bound seen so far caps the minimum. A server whose lower
  // bound is above that cap, or above the least exact load found so far, has
  // a larger load than some other server: it can neither win nor tie, and
  // is not re-summed. The rest are the candidates; their exact loads
  // decide, and a point bound with the best's load and GPU count is an
  // exact tie without a division.
  Tickets cap = std::numeric_limits<double>::infinity();
  ServerId best = ServerId::Invalid();
  Tickets best_load = std::numeric_limits<double>::infinity();  // exact
  Tickets best_sum = -1.0;
  uint16_t best_gpus = 0;
  int64_t resums = 0;
  for (ServerId id : servers) {
    const ServerLoad& bound = loads_[id.value()];
    if (!eligible(id, bound)) {
      continue;
    }
    cap = std::min(cap, PerGpuUpper(bound));
    if (PerGpuLower(bound) > std::min(cap, best_load)) {
      continue;
    }
    if (bound.lo == bound.hi && bound.lo == best_sum && bound.gpus == best_gpus) {
      best = std::min(best, id);
      continue;
    }
    const Tickets sum = ExactTicketLoad(id.value(), &resums);
    const Tickets load = sum / static_cast<double>(bound.gpus);
    if (load < best_load || (load == best_load && id < best)) {
      best_load = load;
      best = id;
      best_sum = sum;
      best_gpus = bound.gpus;
    }
  }
  ticket_load_resums_ += resums;
  return best;
}

ServerId ClusterStateIndex::LeastLoadedServer(cluster::GpuGeneration gen, int min_gpus,
                                              ServerId exclude) const {
  const ServerId best = LeastLoadedAmong(cluster_.servers_of(gen), min_gpus, exclude);
#ifndef NDEBUG
  // The pre-index selection rule over fresh sums: a linear scan where the
  // first strictly smaller load wins.
  ServerId scan_best = ServerId::Invalid();
  Tickets scan_load = std::numeric_limits<double>::infinity();
  for (ServerId sid : cluster_.servers_of(gen)) {
    if (sid == exclude || draining(sid) || down(sid) ||
        cluster_.server(sid).num_gpus() < min_gpus) {
      continue;
    }
    const Tickets load =
        stride(sid).FreshTicketLoad() / static_cast<double>(cluster_.server(sid).num_gpus());
    if (load < scan_load) {
      scan_load = load;
      scan_best = sid;
    }
  }
  GFAIR_DCHECK_MSG(best == scan_best, "load bounds disagree with the linear least-loaded scan");
#endif
  return best;
}

ServerId ClusterStateIndex::LeastOccupiedServer(cluster::GpuGeneration gen,
                                                int min_gpus) const {
  // Occupancies are exact (see header comment), so the least (occupancy,
  // load, id) is the least (load, id) of the lowest group with an eligible
  // server. Only that group's bounds are read.
  for (const OccupancyGroup& group : occupancy_groups(gen)) {
    const ServerId best = LeastLoadedAmong(group.servers, min_gpus);
    if (best.valid()) {
      return best;
    }
  }
  return ServerId::Invalid();
}

bool ClusterStateIndex::SameExactLoad(const std::vector<ServerId>& servers,
                                      const std::vector<Tickets>& pending, size_t a,
                                      size_t b) const {
  const ServerLoad& x = loads_[servers[a].value()];
  const ServerLoad& y = loads_[servers[b].value()];
  return a != b && x.lo == x.hi && y.lo == y.hi && x.lo == y.lo && x.gpus == y.gpus &&
         pending[a] == pending[b];
}

ClusterStateIndex::LoadSpread ClusterStateIndex::ScanLoadSpread(
    const std::vector<ServerId>& servers, const std::vector<Tickets>& pending,
    double threshold) const {
  GFAIR_CHECK(pending.size() == servers.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // One scan of the load records. Each server's per-GPU load
  // (L + pending) / gpus lies within PerGpuLower/PerGpuUpper, and since IEEE
  // + is monotone, the in-order sum of those loads lies between the
  // in-order sums of the bounds. A server is a candidate for the
  // maximum while its upper bound reaches the largest lower bound seen;
  // the minimum mirrors that.
  Tickets sum_lo = 0.0;
  Tickets sum_hi = 0.0;
  Tickets max_floor = -kInf;  // the maximum is at least this
  Tickets max_ceiling = -kInf;
  Tickets min_cap = kInf;  // the minimum is at most this
  Tickets min_floor = kInf;
  high_candidates_.clear();
  low_candidates_.clear();
  for (size_t i = 0; i < servers.size(); ++i) {
    const ServerLoad& bound = loads_[servers[i].value()];
    if (bound.draining != 0 || bound.down != 0) {
      continue;
    }
    const Tickets lo = PerGpuLower(bound, pending[i]);
    const Tickets hi = PerGpuUpper(bound, pending[i]);
    sum_lo += lo;
    sum_hi += hi;
    if (hi >= max_floor) {
      max_floor = std::max(max_floor, lo);
      max_ceiling = std::max(max_ceiling, hi);
      high_candidates_.push_back(Candidate{i, hi});
    }
    if (lo <= min_cap) {
      min_cap = std::min(min_cap, hi);
      min_floor = std::min(min_floor, lo);
      low_candidates_.push_back(Candidate{i, lo});
    }
  }
  // The balance test, spread <= threshold * max(average, 1e-9), at both ends
  // of the average.
  const double positions = static_cast<double>(servers.size());
  const Tickets limit_a = threshold * std::max(sum_lo / positions, Tickets(1e-9));
  const Tickets limit_b = threshold * std::max(sum_hi / positions, Tickets(1e-9));
  const Tickets limit_lo = std::min(limit_a, limit_b);
  const Tickets limit_hi = std::max(limit_a, limit_b);

  LoadSpread spread;
  if (max_ceiling - min_floor <= limit_lo) {
    spread.balanced = true;  // even the widest spread passes
  } else {
    // The extremes, exactly: every server holding one is a candidate, and
    // candidates are kept in position order, so "first strictly greater
    // (smaller) wins" picks the position a full scan picks. A candidate
    // whose bound cannot beat the extreme so far is skipped, and so is a
    // point bound equal to the extreme's in load, pending and GPU count.
    spread.max_load = -kInf;
    for (const Candidate& candidate : high_candidates_) {
      if (candidate.bound < max_floor || candidate.bound <= spread.max_load ||
          (spread.max_load > -kInf &&
           SameExactLoad(servers, pending, candidate.at, spread.max_pos))) {
        continue;
      }
      const size_t i = candidate.at;
      const Tickets load = (ExactTicketLoad(servers[i]) + pending[i]) /
                           static_cast<double>(loads_[servers[i].value()].gpus);
      if (load > spread.max_load) {
        spread.max_load = load;
        spread.max_pos = i;
      }
    }
    spread.min_load = kInf;
    for (const Candidate& candidate : low_candidates_) {
      if (candidate.bound > min_cap || candidate.bound >= spread.min_load ||
          (spread.min_load < kInf &&
           SameExactLoad(servers, pending, candidate.at, spread.min_pos))) {
        continue;
      }
      const size_t i = candidate.at;
      const Tickets load = (ExactTicketLoad(servers[i]) + pending[i]) /
                           static_cast<double>(loads_[servers[i].value()].gpus);
      if (load < spread.min_load) {
        spread.min_load = load;
        spread.min_pos = i;
      }
    }
    const Tickets gap = spread.max_load - spread.min_load;
    if (gap <= limit_lo || gap > limit_hi) {
      spread.balanced = gap <= limit_lo;
    } else {
      // The average decides: re-sum every server for the exact sum.
      Tickets sum = 0.0;
      for (size_t i = 0; i < servers.size(); ++i) {
        const ServerLoad& bound = loads_[servers[i].value()];
        if (bound.draining == 0 && bound.down == 0) {
          sum += (ExactTicketLoad(servers[i]) + pending[i]) / static_cast<double>(bound.gpus);
        }
      }
      spread.balanced = gap <= threshold * std::max(sum / positions, Tickets(1e-9));
    }
  }
#ifndef NDEBUG
  // The same round over fresh sums, as a full linear scan.
  LoadSpread scan;
  scan.max_load = -kInf;
  scan.min_load = kInf;
  Tickets scan_sum = 0.0;
  for (size_t i = 0; i < servers.size(); ++i) {
    const ServerId id = servers[i];
    if (draining(id) || down(id)) {
      continue;
    }
    const Tickets load = (stride(id).FreshTicketLoad() + pending[i]) /
                         static_cast<double>(cluster_.server(id).num_gpus());
    scan_sum += load;
    if (load > scan.max_load) {
      scan.max_load = load;
      scan.max_pos = i;
    }
    if (load < scan.min_load) {
      scan.min_load = load;
      scan.min_pos = i;
    }
  }
  scan.balanced = scan.max_load - scan.min_load <=
                  threshold * std::max(scan_sum / positions, Tickets(1e-9));
  GFAIR_DCHECK_MSG(spread.balanced == scan.balanced,
                   "load bounds disagree with the linear scan's balance test");
  GFAIR_DCHECK_MSG(spread.balanced ||
                       (spread.max_pos == scan.max_pos && spread.min_pos == scan.min_pos &&
                        spread.max_load == scan.max_load && spread.min_load == scan.min_load),
                   "load bounds disagree with the linear scan's extremes");
#endif
  return spread;
}

}  // namespace gfair::sched
