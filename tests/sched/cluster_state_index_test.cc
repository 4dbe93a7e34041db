#include "sched/cluster_state_index.h"

#include <gtest/gtest.h>

#include <deque>
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
  rate.pool_tickets = 0.8;  // 0.8 * 2 / 4 = 0.4 tickets, norm load 0.1
  index.InvalidateTicketLoad(ServerId(0));
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
  pool_a.pool_tickets = 16.0;  // 8 tickets per job
  pool_b.pool_tickets = 0.5;
  index.InvalidateTicketLoad(ServerId(0));
  index.InvalidateTicketLoad(ServerId(1));
  EXPECT_EQ(index.stride(ServerId(0)).TicketLoad(), Tickets(8.0));
  EXPECT_EQ(index.stride(ServerId(1)).TicketLoad(), Tickets(8.0));
  EXPECT_EQ(index.stride(ServerId(0)).TicketsOf(JobId(1)), Tickets(8.0));
  EXPECT_EQ(index.stride(ServerId(2)).TicketLoad(), Tickets(3.0));
  EXPECT_EQ(index.stride(ServerId(2)).FreshTicketLoad(), Tickets(0.5));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1),
            ScanLeastLoaded(cluster, index, GpuGeneration::kV100));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(2));

  // Once told, server 2 re-prices and the ordering follows.
  index.InvalidateTicketLoad(ServerId(2));
  EXPECT_EQ(index.stride(ServerId(2)).TicketLoad(), Tickets(0.5));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1),
            ScanLeastLoaded(cluster, index, GpuGeneration::kV100));
  for (const auto& [key, sid] : index.pool_by_load(GpuGeneration::kV100)) {
    EXPECT_EQ(key, index.NormTicketLoad(sid));
  }
}

TEST(ClusterStateIndexTest, RepricingLeavesPlanDirtyAlone) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});
  TicketRate rate{1.0, 1.0};
  index.AddJob(ServerId(0), JobId(1), 1, /*share=*/1.0, &rate);
  EXPECT_TRUE(index.plan_dirty(ServerId(0)));  // membership changed
  index.ClearPlanDirty(ServerId(0));
  rate.pool_tickets = 5.0;
  index.InvalidateTicketLoad(ServerId(0));
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

TEST(ClusterStateIndexTest, PoolOrderingStaysSorted) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});
  FixedRates fixed;
  index.AddJob(ServerId(0), JobId(1), 1, 1.0, fixed.Holding(8.0));
  index.AddJob(ServerId(1), JobId(2), 1, 1.0, fixed.Holding(2.0));
  index.AddJob(ServerId(2), JobId(3), 1, 1.0, fixed.Holding(4.0));

  const auto& pool = index.pool_by_load(GpuGeneration::kV100);
  ASSERT_EQ(pool.size(), 3u);
  double prev = -1.0;
  for (const auto& [load, id] : pool) {
    EXPECT_GE(load, prev);
    EXPECT_DOUBLE_EQ(load, index.NormTicketLoad(id));
    prev = load;
  }
  EXPECT_EQ(pool.begin()->second, ServerId(1));
}

}  // namespace
}  // namespace gfair::sched
