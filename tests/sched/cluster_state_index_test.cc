#include "sched/cluster_state_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <utility>
#include <vector>

#include "cluster/cluster.h"

namespace gfair::sched {
namespace {

using cluster::GpuGeneration;

cluster::Cluster MakeCluster() {
  // Servers 0-2: V100 x4 GPUs. Servers 3-4: K80 x8 GPUs.
  cluster::Topology topology{{
      cluster::ServerGroup{GpuGeneration::kV100, 3, 4},
      cluster::ServerGroup{GpuGeneration::kK80, 2, 8},
  }};
  return cluster::Cluster(topology);
}

// Rates for jobs holding a fixed ticket count: a job reading {t, 1} at
// share 1 holds exactly t. A deque keeps handed-out addresses stable.
class FixedRates {
 public:
  const TicketRate* Holding(Tickets tickets) {
    rates_.push_back(TicketRate{tickets, 1.0});
    return &rates_.back();
  }

 private:
  std::deque<TicketRate> rates_;
};

// The share sum of jobs holding `shares` on one server.
ShareSum SharesOf(std::initializer_list<double> shares) {
  ShareSum sum;
  for (double share : shares) {
    sum.Add(share);
  }
  return sum;
}

// Every server's fresh ticket load lies inside its certified bounds.
void ExpectBoundsHold(const cluster::Cluster& cluster, const ClusterStateIndex& index) {
  for (const auto& server : cluster.servers()) {
    const Tickets fresh = index.stride(server.id()).FreshTicketLoad();
    EXPECT_LE(index.server_load(server.id()).lo, fresh) << "server " << server.id();
    EXPECT_GE(index.server_load(server.id()).hi, fresh) << "server " << server.id();
  }
}

TEST(ClusterStateIndexTest, LeastLoadedTracksMutationsLazily) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});
  FixedRates fixed;

  // All loads zero: ties resolve to the lowest server id.
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(0));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kK80, 1), ServerId(3));

  index.AddJob(ServerId(0), JobId(1), 2, 1.0, fixed.Holding(4.0));  // norm load 1.0
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(1));
  index.AddJob(ServerId(1), JobId(2), 1, 1.0, fixed.Holding(1.0));  // norm load 0.25
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(2));
  index.AddJob(ServerId(2), JobId(3), 1, 1.0, fixed.Holding(2.0));  // norm load 0.5
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(1));

  // A re-priced rate repositions (lazily — the query must see the new
  // order): job 4 on server 0 reads rate {8, 4} at share 2 -> 4 tickets.
  index.RemoveJob(ServerId(0), JobId(1));
  TicketRate rate{8.0, 4.0};
  index.AddJob(ServerId(0), JobId(4), 2, /*share=*/2.0, &rate);  // norm load 1.0
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(1));
  const TicketRate before = rate;
  rate.pool_tickets = 0.8;  // 0.8 * 2 / 4 = 0.4 tickets, norm load 0.1
  index.RepriceTicketLoad(ServerId(0), SharesOf({2.0}), RateChange(before, rate));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(0));
  EXPECT_DOUBLE_EQ(index.NormTicketLoad(ServerId(0)), 0.1);

  // Removal drops the load back to zero.
  index.RemoveJob(ServerId(1), JobId(2));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(1));
}

// Least-loaded server of `gen` by the pre-index rule: a linear scan in
// ascending id order where the first strictly smaller load wins.
ServerId ScanLeastLoaded(const cluster::Cluster& cluster, const ClusterStateIndex& index,
                         GpuGeneration gen) {
  ServerId best = ServerId::Invalid();
  double best_load = 0.0;
  for (ServerId sid : cluster.servers_of(gen)) {
    const double load = index.NormTicketLoad(sid);
    if (!best.valid() || load < best_load) {
      best = sid;
      best_load = load;
    }
  }
  return best;
}

TEST(ClusterStateIndexTest, RepricingARateTouchesOnlyItsHostingServers) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});
  // Pool A's rate prices jobs on servers 0 and 1; pool B's on server 2.
  TicketRate pool_a{2.0, 2.0};
  TicketRate pool_b{3.0, 1.0};
  index.AddJob(ServerId(0), JobId(1), 1, /*share=*/1.0, &pool_a);  // 1 ticket
  index.AddJob(ServerId(1), JobId(2), 1, /*share=*/1.0, &pool_a);  // 1 ticket
  index.AddJob(ServerId(2), JobId(3), 1, /*share=*/1.0, &pool_b);  // 3 tickets
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(index.stride(ServerId(s)).TicketLoad(),
              index.stride(ServerId(s)).FreshTicketLoad());
  }
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(0));

  // Re-price pool A (one rate write + its hosting servers), and move pool B
  // without telling anyone: server 2's cached load must still be the old
  // one, proving the refresh left it alone.
  const TicketRate old_a = pool_a;
  const TicketRate old_b = pool_b;
  pool_a.pool_tickets = 16.0;  // 8 tickets per job
  pool_b.pool_tickets = 0.5;
  index.RepriceTicketLoad(ServerId(0), SharesOf({1.0}), RateChange(old_a, pool_a));
  index.RepriceTicketLoad(ServerId(1), SharesOf({1.0}), RateChange(old_a, pool_a));
  EXPECT_EQ(index.stride(ServerId(0)).TicketLoad(), Tickets(8.0));
  EXPECT_EQ(index.stride(ServerId(1)).TicketLoad(), Tickets(8.0));
  EXPECT_EQ(index.stride(ServerId(0)).TicketsOf(JobId(1)), Tickets(8.0));
  EXPECT_EQ(index.stride(ServerId(2)).TicketLoad(), Tickets(3.0));
  EXPECT_EQ(index.stride(ServerId(2)).FreshTicketLoad(), Tickets(0.5));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1),
            ScanLeastLoaded(cluster, index, GpuGeneration::kV100));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(2));

  // Once told, server 2 re-prices and the least-loaded query follows.
  index.RepriceTicketLoad(ServerId(2), SharesOf({1.0}), RateChange(old_b, pool_b));
  EXPECT_EQ(index.stride(ServerId(2)).TicketLoad(), Tickets(0.5));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1),
            ScanLeastLoaded(cluster, index, GpuGeneration::kV100));
  ExpectBoundsHold(cluster, index);
}

TEST(ClusterStateIndexTest, RepricingLeavesPlanDirtyAlone) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});
  TicketRate rate{1.0, 1.0};
  index.AddJob(ServerId(0), JobId(1), 1, /*share=*/1.0, &rate);
  EXPECT_TRUE(index.plan_dirty(ServerId(0)));  // membership changed
  index.ClearPlanDirty(ServerId(0));
  const TicketRate before = rate;
  rate.pool_tickets = 5.0;
  index.RepriceTicketLoad(ServerId(0), SharesOf({1.0}), RateChange(before, rate));
  EXPECT_FALSE(index.plan_dirty(ServerId(0)));
  EXPECT_EQ(index.stride(ServerId(0)).TicketLoad(), Tickets(5.0));
  index.RemoveJob(ServerId(0), JobId(1));
  EXPECT_TRUE(index.plan_dirty(ServerId(0)));
}

TEST(ClusterStateIndexTest, OversubscribedSetTracksDemandAboveCapacity) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});
  const auto ids = [&index](GpuGeneration gen) {
    const auto& set = index.oversubscribed(gen);
    return std::vector<ServerId>(set.begin(), set.end());
  };
  const TicketRate rate{1.0, 1.0};
  // Server 2 (4 GPUs): exactly full is not oversubscribed; one more is.
  index.AddJob(ServerId(2), JobId(1), 4, 1.0, &rate);
  EXPECT_TRUE(ids(GpuGeneration::kV100).empty());
  index.AddJob(ServerId(2), JobId(2), 1, 1.0, &rate);
  EXPECT_EQ(ids(GpuGeneration::kV100), std::vector<ServerId>{ServerId(2)});
  // Server 0 joins; the set stays in ascending id order.
  index.AddJob(ServerId(0), JobId(3), 4, 1.0, &rate);
  index.AddJob(ServerId(0), JobId(4), 2, 1.0, &rate);
  EXPECT_EQ(ids(GpuGeneration::kV100), (std::vector<ServerId>{ServerId(0), ServerId(2)}));
  EXPECT_TRUE(ids(GpuGeneration::kK80).empty());
  // Dropping back to capacity leaves the set.
  index.RemoveJob(ServerId(2), JobId(1));
  EXPECT_EQ(ids(GpuGeneration::kV100), std::vector<ServerId>{ServerId(0)});
  index.RemoveJob(ServerId(0), JobId(4));
  EXPECT_TRUE(ids(GpuGeneration::kV100).empty());
}

TEST(ClusterStateIndexTest, QueryFiltersExcludeDrainingAndCapacity) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});

  // exclude
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1, ServerId(0)), ServerId(1));
  // min_gpus: no V100 server has 8 GPUs
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 8), ServerId::Invalid());
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kK80, 8), ServerId(3));

  // draining servers never qualify
  EXPECT_FALSE(index.AnyDraining());
  index.SetDraining(ServerId(3), true);
  EXPECT_TRUE(index.AnyDraining());
  EXPECT_TRUE(index.draining(ServerId(3)));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kK80, 1), ServerId(4));
  index.SetDraining(ServerId(4), true);
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kK80, 1), ServerId::Invalid());
  index.SetDraining(ServerId(3), false);
  index.SetDraining(ServerId(4), false);
  EXPECT_FALSE(index.AnyDraining());
  // Repeated SetDraining with the same value must not skew the counter.
  index.SetDraining(ServerId(3), false);
  EXPECT_FALSE(index.AnyDraining());
}

// A pool's groups as (occupancy, member ids in ascending order).
using GroupList = std::vector<std::pair<double, std::vector<ServerId>>>;

// The pool's groups, checking on the way that each member's recorded slot is
// its position and its occupancy the group's.
GroupList Groups(const ClusterStateIndex& index, GpuGeneration gen) {
  GroupList groups;
  for (const ClusterStateIndex::OccupancyGroup& group : index.occupancy_groups(gen)) {
    for (size_t slot = 0; slot < group.servers.size(); ++slot) {
      EXPECT_EQ(index.occupancy_slot(group.servers[slot]), slot);
      EXPECT_EQ(index.Occupancy(group.servers[slot]), group.occupancy);
    }
    std::vector<ServerId> members = group.servers;
    std::sort(members.begin(), members.end());
    groups.emplace_back(group.occupancy, members);
  }
  return groups;
}

TEST(ClusterStateIndexTest, OccupancyGroupsFollowDemandAcrossServerSizes) {
  // One V100 pool of 8-, 4- and 2-GPU servers (ids 0, 1, 2).
  const cluster::Cluster cluster(cluster::Topology{{
      cluster::ServerGroup{GpuGeneration::kV100, 1, 8},
      cluster::ServerGroup{GpuGeneration::kV100, 1, 4},
      cluster::ServerGroup{GpuGeneration::kV100, 1, 2},
  }});
  ClusterStateIndex index(cluster, StrideConfig{});
  FixedRates fixed;
  const ServerId s8(0), s4(1), s2(2);
  EXPECT_EQ(Groups(index, GpuGeneration::kV100), (GroupList{{0.0, {s8, s4, s2}}}));

  // 4/8 = 2/4 = 1/2: equal rationals across server sizes share one group.
  index.AddJob(s8, JobId(1), 4, 1.0, fixed.Holding(1.0));
  index.AddJob(s4, JobId(2), 2, 1.0, fixed.Holding(1.0));
  EXPECT_EQ(Groups(index, GpuGeneration::kV100),
            (GroupList{{0.0, {s2}}, {0.5, {s8, s4}}}));
  index.AddJob(s2, JobId(3), 1, 1.0, fixed.Holding(1.0));
  EXPECT_EQ(Groups(index, GpuGeneration::kV100), (GroupList{{0.5, {s8, s4, s2}}}));

  // Oversubscription clamps at 1: more demand does not move the server.
  index.AddJob(s2, JobId(4), 2, 1.0, fixed.Holding(1.0));
  EXPECT_EQ(Groups(index, GpuGeneration::kV100), (GroupList{{0.5, {s8, s4}}, {1.0, {s2}}}));
  const uint32_t slot = index.occupancy_slot(s2);
  index.AddJob(s2, JobId(5), 2, 1.0, fixed.Holding(1.0));
  EXPECT_EQ(index.occupancy_slot(s2), slot);
  EXPECT_EQ(Groups(index, GpuGeneration::kV100), (GroupList{{0.5, {s8, s4}}, {1.0, {s2}}}));

  // Removal moves a server down again; emptied groups disappear.
  index.RemoveJob(s8, JobId(1));
  index.AddJob(s8, JobId(6), 1, 1.0, fixed.Holding(1.0));
  EXPECT_EQ(Groups(index, GpuGeneration::kV100),
            (GroupList{{0.125, {s8}}, {0.5, {s4}}, {1.0, {s2}}}));
  index.RemoveJob(s4, JobId(2));
  EXPECT_EQ(Groups(index, GpuGeneration::kV100),
            (GroupList{{0.0, {s4}}, {0.125, {s8}}, {1.0, {s2}}}));
  // Other pools are untouched.
  EXPECT_TRUE(index.occupancy_groups(GpuGeneration::kK80).empty());
}

TEST(ClusterStateIndexTest, LargestExactServerIsAccepted) {
  const cluster::Cluster cluster(cluster::Topology{{cluster::ServerGroup{
      GpuGeneration::kV100, 1, ClusterStateIndex::kMaxServerGpus}}});
  ClusterStateIndex index(cluster, StrideConfig{});
  FixedRates fixed;
  index.AddJob(ServerId(0), JobId(1), 1, 1.0, fixed.Holding(1.0));
  EXPECT_EQ(index.Occupancy(ServerId(0)), 1.0 / ClusterStateIndex::kMaxServerGpus);
}

TEST(ClusterStateIndexDeathTest, ServerAboveTheOccupancyBoundIsRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const cluster::Cluster cluster(cluster::Topology{{cluster::ServerGroup{
      GpuGeneration::kV100, 1, ClusterStateIndex::kMaxServerGpus + 1}}});
  EXPECT_DEATH(ClusterStateIndex(cluster, StrideConfig{}), "kMaxServerGpus");
}

}  // namespace
}  // namespace gfair::sched
