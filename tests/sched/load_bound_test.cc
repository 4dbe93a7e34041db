// Certified ticket-load bounds (sched/load_bound.h, ClusterStateIndex):
// seeded random attach/detach/re-price steps keep every server's fresh load
// inside its bounds, and every load query answers what a linear scan of
// fresh sums answers. A second test pins that the queries' re-sums do not
// scale with the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "sched/cluster_state_index.h"
#include "sched/load_bound.h"
#include "sched/residency_index.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

namespace gfair::sched {
namespace {

using cluster::GpuGeneration;

constexpr GpuGeneration kGen = GpuGeneration::kV100;
constexpr Tickets kMinTickets = 1e-6;  // the facade's floor on pool tickets

// The facade's residency bookkeeping over one pool: attach and detach go
// through the ResidencyIndex and the ClusterStateIndex, and every change
// re-prices the user's hosting servers the way RefreshPoolTickets does.
class Pool {
 public:
  Pool(const cluster::Topology& topology, int users)
      : cluster_(topology), index_(cluster_, StrideConfig{}), residency_(jobs_),
        tickets_(static_cast<size_t>(users), Tickets(100.0)) {}

  JobId NewJob(int user, int gang, double weight) {
    workload::Job& job = jobs_.Create(UserId(static_cast<uint32_t>(user)),
                                      workload::ModelZoo::Default().GetByName("DCGAN").id,
                                      gang, 1.0, kTimeZero);
    job.weight = weight;
    return job.id;
  }
  void Attach(JobId id, ServerId server) {
    const workload::Job& job = jobs_.Get(id);
    residency_.Attach(job.user, kGen, id, server);
    index_.AddJob(server, id, job.gang_size, ResidencyIndex::ShareOf(job),
                  &residency_.PoolRate(job.user, kGen));
    Reprice(job.user);
    homes_.push_back({id, server});
  }
  // Detaches the `k`-th resident job.
  void Detach(size_t k) {
    const auto [id, server] = homes_[k];
    homes_[k] = homes_.back();
    homes_.pop_back();
    const workload::Job& job = jobs_.Get(id);
    residency_.Detach(job.user, kGen, id, server);
    index_.RemoveJob(server, id);
    Reprice(job.user);
  }
  void SetTickets(int user, Tickets tickets) {
    tickets_[static_cast<size_t>(user)] = tickets;
    Reprice(UserId(static_cast<uint32_t>(user)));
  }

  const cluster::Cluster& cluster() const { return cluster_; }
  ClusterStateIndex& index() { return index_; }
  size_t residents() const { return homes_.size(); }
  std::pair<JobId, ServerId> home(size_t k) const { return homes_[k]; }

 private:
  void Reprice(UserId user) {
    const std::vector<ResidencyIndex::Host>& hosts = residency_.PoolHosts(user, kGen);
    if (hosts.empty()) {
      return;  // as the facade: an emptied pool keeps its last rate
    }
    TicketRate& published = residency_.PoolRate(user, kGen);
    const TicketRate before = published;
    published = TicketRate{std::max(tickets_[user.value()], kMinTickets),
                           residency_.WeightedResidentDemand(user, kGen)};
    const RateChange change(before, published);
    for (const ResidencyIndex::Host& host : hosts) {
      index_.RepriceTicketLoad(host.server, host.shares, change);
    }
  }

  cluster::Cluster cluster_;
  ClusterStateIndex index_;
  workload::JobTable jobs_;
  ResidencyIndex residency_;
  std::vector<Tickets> tickets_;
  std::vector<std::pair<JobId, ServerId>> homes_;
};

Tickets PerGpu(const ClusterStateIndex& index, ServerId id, Tickets pending = 0.0) {
  return (index.stride(id).FreshTicketLoad() + pending) /
         static_cast<double>(index.stride(id).num_gpus());
}

void ExpectBoundsHold(const Pool& pool, ClusterStateIndex& index, const std::string& where) {
  for (const auto& server : pool.cluster().servers()) {
    const Tickets fresh = index.stride(server.id()).FreshTicketLoad();
    const ClusterStateIndex::ServerLoad& bound = index.server_load(server.id());
    ASSERT_TRUE(bound.lo <= fresh && fresh <= bound.hi)
        << where << ": server " << server.id() << " load " << fresh << " outside ["
        << bound.lo << ", " << bound.hi << "]";
  }
}

// Each query against its linear scan of fresh sums.
void ExpectQueriesMatchScans(Pool& pool, Rng& rng, const std::string& where) {
  ClusterStateIndex& index = pool.index();
  const std::vector<ServerId>& servers = pool.cluster().servers_of(kGen);
  for (int min_gpus : {1, 2, 8}) {
    // LeastLoadedServer: the first strictly smaller load in id order.
    ServerId least = ServerId::Invalid();
    Tickets least_load = std::numeric_limits<double>::infinity();
    // Placement: occupancy within 1e-9, then load, first strictly smaller.
    ServerId placed = ServerId::Invalid();
    double placed_occupancy = std::numeric_limits<double>::infinity();
    Tickets placed_load = std::numeric_limits<double>::infinity();
    for (ServerId id : servers) {
      if (index.stride(id).num_gpus() < min_gpus) {
        continue;
      }
      const Tickets load = PerGpu(index, id);
      if (load < least_load) {
        least_load = load;
        least = id;
      }
      const double occupancy = index.Occupancy(id);
      if (occupancy < placed_occupancy - 1e-9 ||
          (occupancy < placed_occupancy + 1e-9 && load < placed_load)) {
        placed_occupancy = occupancy;
        placed_load = load;
        placed = id;
      }
    }
    ASSERT_EQ(index.LeastLoadedServer(kGen, min_gpus), least) << where;
    ASSERT_EQ(index.LeastOccupiedServer(kGen, min_gpus), placed) << where;
  }

  // A balancer round with tickets in flight toward a few positions.
  std::vector<Tickets> pending(servers.size(), Tickets(0.0));
  for (int k = 0; k < 3; ++k) {
    pending[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(servers.size()) - 1))] +=
        rng.Uniform(0.0, 50.0);
  }
  for (double threshold : {0.0, 0.15, 1e6}) {
    Tickets max_load = -std::numeric_limits<double>::infinity();
    Tickets min_load = std::numeric_limits<double>::infinity();
    Tickets sum = 0.0;
    size_t max_pos = 0;
    size_t min_pos = 0;
    for (size_t i = 0; i < servers.size(); ++i) {
      const Tickets load = PerGpu(index, servers[i], pending[i]);
      sum += load;
      if (load > max_load) {
        max_load = load;
        max_pos = i;
      }
      if (load < min_load) {
        min_load = load;
        min_pos = i;
      }
    }
    const bool balanced =
        max_load - min_load <=
        threshold * std::max(sum / static_cast<double>(servers.size()), Tickets(1e-9));
    const ClusterStateIndex::LoadSpread spread = index.ScanLoadSpread(servers, pending, threshold);
    ASSERT_EQ(spread.balanced, balanced) << where << " threshold " << threshold;
    if (!balanced) {
      ASSERT_EQ(spread.max_pos, max_pos) << where;
      ASSERT_EQ(spread.min_pos, min_pos) << where;
      ASSERT_EQ(spread.max_load, max_load) << where;
      ASSERT_EQ(spread.min_load, min_load) << where;
    }
  }
}

struct PropertyCase {
  const char* name;
  cluster::Topology topology;
  bool same_mix;  // every server starts with one identical job mix
};

class LoadBoundProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(LoadBoundProperty, BoundsHoldAndQueriesMatchLinearScans) {
  constexpr int kUsers = 4;
  constexpr int kSeeds = 6;
  constexpr int kSteps = 300;
  const int gangs[] = {1, 2, 4, 8};
  const double weights[] = {1.0, 2.5, 1.0 / 3.0, 1e-3};
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Pool pool(GetParam().topology, kUsers);
    Rng rng(seed);
    const std::vector<ServerId>& servers = pool.cluster().servers_of(kGen);
    if (GetParam().same_mix) {
      // The tie case: identical mixes, attached in the same order, sum to
      // identical loads.
      for (ServerId server : servers) {
        for (int user = 0; user < kUsers; ++user) {
          pool.Attach(pool.NewJob(user, 1, 1.0), server);
        }
      }
    }
    for (int step = 0; step < kSteps; ++step) {
      const std::string where = std::string(GetParam().name) + " seed " +
                                std::to_string(seed) + " step " + std::to_string(step);
      const int64_t action = rng.UniformInt(0, 9);
      if (action < 5 || pool.residents() == 0) {
        const ServerId server =
            servers[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(servers.size()) - 1))];
        int gang = gangs[rng.UniformInt(0, 3)];
        gang = std::min(gang, pool.index().stride(server).num_gpus());
        pool.Attach(pool.NewJob(static_cast<int>(rng.UniformInt(0, kUsers - 1)), gang,
                                weights[rng.UniformInt(0, 3)]),
                    server);
      } else if (action < 8) {
        pool.Detach(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pool.residents()) - 1)));
      } else {
        // A trade epoch's kind of change: T moves, at times to the floor.
        const int user = static_cast<int>(rng.UniformInt(0, kUsers - 1));
        pool.SetTickets(user, rng.UniformInt(0, 4) == 0 ? Tickets(0.0)
                                                        : Tickets(rng.Uniform(0.5, 400.0)));
      }
      ExpectBoundsHold(pool, pool.index(), where);
      ExpectQueriesMatchScans(pool, rng, where);
      ExpectBoundsHold(pool, pool.index(), where + " after the queries");
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pools, LoadBoundProperty,
    ::testing::Values(
        PropertyCase{"mixed_sizes",
                     cluster::Topology{{cluster::ServerGroup{kGen, 6, 8},
                                        cluster::ServerGroup{kGen, 6, 4}}},
                     false},
        PropertyCase{"same_mix", cluster::Topology{{cluster::ServerGroup{kGen, 16, 8}}}, true}),
    [](const ::testing::TestParamInfo<PropertyCase>& param_info) { return param_info.param.name; });

// admit10k's shape: 1,250 8-GPU servers holding four users' 1-GPU jobs,
// placed in a seeded random order to ~83% of the GPUs. A balance pass and
// 100 placements each re-sum under 5% of the pool: the queries re-sum the
// servers that can hold an extreme, not every server a re-pricing left
// stale (which is most of the pool after any arrival).
TEST(LoadBoundResumTest, BalanceRoundsAndPlacementsResumLittleOfThePool) {
  constexpr int kServers = 1250;
  constexpr int kUsers = 4;
  constexpr int64_t kLimit = kServers / 20;
  Pool pool(cluster::HomogeneousTopology(kServers, 8), kUsers);
  ClusterStateIndex& index = pool.index();
  const std::vector<ServerId>& servers = pool.cluster().servers_of(kGen);
  Rng rng(7);
  std::vector<ServerId> slots;
  for (ServerId server : servers) {
    for (int gpu = 0; gpu < 8; ++gpu) {
      slots.push_back(server);
    }
  }
  rng.Shuffle(slots);
  slots.resize(slots.size() * 83 / 100);
  for (ServerId server : slots) {
    pool.Attach(pool.NewJob(static_cast<int>(rng.UniformInt(0, kUsers - 1)), 1, 1.0), server);
  }

  // One balance pass: up to 16 rounds, each moving one job off the most
  // loaded server (a detach re-prices its user's ~1k hosting servers).
  std::vector<Tickets> pending(servers.size(), Tickets(0.0));
  int rounds = 0;
  for (; rounds < 16; ++rounds) {
    const int64_t before = index.ticket_load_resums();
    const ClusterStateIndex::LoadSpread spread = index.ScanLoadSpread(servers, pending, 0.15);
    EXPECT_LT(index.ticket_load_resums() - before, kLimit) << "round " << rounds;
    if (spread.balanced) {
      break;
    }
    const ServerId source = servers[spread.max_pos];
    for (size_t k = 0; k < pool.residents(); ++k) {
      if (pool.home(k).second == source) {
        pending[spread.min_pos] += index.stride(source).TicketsOf(pool.home(k).first);
        pool.Detach(k);
        break;
      }
    }
  }
  EXPECT_GT(rounds, 0);

  for (int arrival = 0; arrival < 100; ++arrival) {
    const int64_t before = index.ticket_load_resums();
    const ServerId server = index.LeastOccupiedServer(kGen, 1);
    EXPECT_LT(index.ticket_load_resums() - before, kLimit) << "arrival " << arrival;
    ASSERT_TRUE(server.valid());
    pool.Attach(pool.NewJob(static_cast<int>(rng.UniformInt(0, kUsers - 1)), 1, 1.0), server);
  }
}

}  // namespace
}  // namespace gfair::sched
