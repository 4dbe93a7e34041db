// Sync points vs the eager flush. One executor flushes every open run
// segment at every quantum (SyncAll); the other only records sync points
// (SyncPoint) and folds each segment lazily — at its close or at a reader's
// SyncProgress/SyncAll. Driven through the same sequence (resumes,
// mid-quantum suspends, warm-up carried across a sync point, a finish, a
// crash, orphans, a parallel apply, a reader SyncProgress between ticks),
// the two must agree bit for bit on every job's completed_minibatches and
// gpu_ms_by_gen and on the ledger's GpuMs, at every quantum.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "sched/ledger.h"
#include "simkit/simulator.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

namespace gfair::exec {
namespace {

using cluster::GpuGeneration;
using workload::Job;

constexpr SimDuration kQuantum = Minutes(1);
constexpr int kQuanta = 10;
constexpr int kUsers = 2;

struct World {
  World()
      : cluster(cluster::Topology{{
            {GpuGeneration::kK80, 1, 4},
            {GpuGeneration::kV100, 1, 4},
        }}),
        exec(sim, cluster, workload::ModelZoo::Default(), jobs, ExecutorConfig{},
             /*seed=*/3) {
    exec.set_on_gpu_credit([this](UserId user, GpuGeneration pool, SimTime at,
                                  int64_t gpu_ms) {
      ledger.CreditGpuMs(user, pool, at, gpu_ms);
    });
  }

  ServerId K80() const { return cluster.servers_of(GpuGeneration::kK80)[0]; }
  ServerId V100() const { return cluster.servers_of(GpuGeneration::kV100)[0]; }

  simkit::Simulator sim;
  cluster::Cluster cluster;
  workload::JobTable jobs;
  sched::FairnessLedger ledger;
  Executor exec;
};

// Everything the two accounting modes must agree on at one instant.
struct Snapshot {
  std::vector<double> values;
  std::vector<std::string> labels;

  void Add(const std::string& label, double value) {
    labels.push_back(label);
    values.push_back(value);
  }
};

Snapshot Take(const World& w) {
  Snapshot snap;
  for (const Job* job : w.jobs.All()) {
    const std::string name = "job " + std::to_string(job->id.value());
    snap.Add(name + " completed", job->completed_minibatches);
    snap.Add(name + " finish", static_cast<double>(job->finish_time));
    for (GpuGeneration gen : cluster::kAllGenerations) {
      snap.Add(name + " gpu_ms " + cluster::GenerationName(gen),
               job->gpu_ms_by_gen[cluster::GenerationIndex(gen)]);
    }
  }
  const SimTime now = w.sim.Now();
  for (uint32_t u = 0; u < kUsers; ++u) {
    for (GpuGeneration gen : cluster::kAllGenerations) {
      const std::string name =
          "user " + std::to_string(u) + " " + cluster::GenerationName(gen);
      snap.Add(name + " ledger total", w.ledger.GpuMs(UserId(u), gen, 0, now));
      snap.Add(name + " ledger last quantum",
               w.ledger.GpuMs(UserId(u), gen, now - kQuantum, now));
    }
  }
  return snap;
}

void ExpectIdentical(const Snapshot& eager, const Snapshot& lazy, int quantum) {
  ASSERT_EQ(eager.values.size(), lazy.values.size());
  for (size_t i = 0; i < eager.values.size(); ++i) {
    // Bit-identical, not approximately equal.
    EXPECT_EQ(eager.values[i], lazy.values[i])  // gfair-lint: allow(float-eq)
        << eager.labels[i] << " at quantum " << quantum;
  }
}

// The shared scenario: ops at fixed instants between and at quantum ticks.
// At tick instants the sync runs first, then that instant's ops (as in the
// scheduler's tick: sync point, then the apply).
struct Op {
  SimTime at;
  std::function<void(World&)> run;
};

std::vector<Op> Scenario(common::ThreadPool& pool) {
  const auto& zoo = workload::ModelZoo::Default();
  auto make = [&zoo](World& w, uint32_t user, const char* model, int gang,
                     double minibatches) {
    return w.jobs.Create(UserId(user), zoo.GetByName(model).id, gang, minibatches,
                         w.sim.Now())
        .id;
  };
  return {
      {0,
       [make](World& w) {
         const JobId j0 = make(w, 0, "DCGAN", 1, 1e9);
         const JobId j1 = make(w, 1, "ResNet-50", 2, 1e9);
         const JobId j2 = make(w, 0, "VAE", 1, 1e9);
         const JobId j3 = make(w, 1, "Transformer", 2, 1e9);
         // Finishes mid-quantum, after a sync point split its segment.
         const JobId j4 = make(w, 0, "DCGAN", 1, 800.0);
         const JobId j5 = make(w, 1, "DCGAN", 1, 1e9);
         for (JobId id : {j0, j1, j4, j5}) {
           w.exec.MakeResident(id, w.K80());
         }
         w.exec.MakeResident(j2, w.V100());
         w.exec.MakeResident(j3, w.V100());
         w.exec.Resume(j0);
         w.exec.Resume(j1);
         w.exec.Resume(j2);
       }},
      // The Transformer's warm-up (~1.75 s) spans the tick at 60 s.
      {Seconds(59.5), [](World& w) { w.exec.Resume(JobId(3)); }},
      {Seconds(75), [](World& w) { w.exec.Resume(JobId(4)); }},
      {Seconds(130), [](World& w) { w.exec.Suspend(JobId(1)); }},
      {Seconds(200), [](World& w) { w.exec.Resume(JobId(1)); }},
      {Seconds(250), [](World& w) { w.exec.InjectCrash(JobId(0)); }},
      {Seconds(260), [](World& w) { w.exec.Resume(JobId(0)); }},
      {Seconds(310), [](World& w) { w.exec.FailServer(w.V100()); }},
      {Seconds(400),
       [](World& w) {
         w.exec.RecoverServer(w.V100());
         w.exec.MakeResident(JobId(2), w.V100());
         w.exec.MakeResident(JobId(3), w.V100());
         w.exec.Resume(JobId(2));
       }},
      {Seconds(445), [](World& w) { w.exec.SyncProgress(JobId(1)); }},
      {Seconds(480),
       [&pool](World& w) {
         const std::vector<ScheduleOp> k80 = {{JobId(0), w.K80(), /*resume=*/false},
                                              {JobId(5), w.K80(), /*resume=*/true}};
         const std::vector<ScheduleOp> v100 = {{JobId(3), w.V100(), /*resume=*/true}};
         const Executor::ApplySlice slices[] = {{k80.data(), k80.size()},
                                                {v100.data(), v100.size()}};
         w.exec.ApplyDeltaParallel(slices, 2, &pool);
       }},
      {Seconds(500), [](World& w) { w.exec.Suspend(JobId(2)); }},
  };
}

// Runs the scenario through quantum `last`. At each quantum instant, after
// the events due then, `tick(world, q)` runs; then that instant's ops; then
// `observe(world, q)`.
using Hook = std::function<void(World&, int)>;

void Drive(World& w, common::ThreadPool& pool, int last, const Hook& tick,
           const Hook& observe) {
  const std::vector<Op> ops = Scenario(pool);
  size_t next = 0;
  for (int q = 0; q <= last; ++q) {
    const SimTime tick_at = q * kQuantum;
    for (; next < ops.size() && ops[next].at < tick_at; ++next) {
      w.sim.RunUntil(ops[next].at);
      ops[next].run(w);
    }
    w.sim.RunUntil(tick_at);
    if (q > 0) {
      tick(w, q);
    }
    for (; next < ops.size() && ops[next].at == tick_at; ++next) {
      ops[next].run(w);
    }
    observe(w, q);
  }
}

void EagerTick(World& w, int /*q*/) { w.exec.SyncAll(); }
void LazyTick(World& w, int /*q*/) { w.exec.SyncPoint(); }

TEST(SyncPointTest, LazyFoldMatchesEagerFlushAtEveryQuantum) {
  common::ThreadPool pool(2);
  World eager_world;
  std::vector<Snapshot> eager;
  Drive(eager_world, pool, kQuanta, EagerTick,
        [&eager](World& w, int) { eager.push_back(Take(w)); });
  // The scenario did what it claims: a job finished, a crash rolled one
  // back, two were orphaned.
  EXPECT_TRUE(eager_world.jobs.Get(JobId(4)).finished());
  EXPECT_EQ(eager_world.jobs.Get(JobId(0)).num_crashes, 1);
  EXPECT_EQ(eager_world.exec.jobs_orphaned(), 2);

  // A fresh lazy executor per quantum q: sync points only before q, then a
  // reader's SyncAll at q — the job state a reader at that quantum sees.
  for (int q = 1; q <= kQuanta; ++q) {
    World lazy_world;
    Snapshot lazy;
    Drive(lazy_world, pool, q,
          [q](World& w, int at) { at < q ? LazyTick(w, at) : EagerTick(w, at); },
          [q, &lazy](World& w, int at) {
            if (at == q) {
              lazy = Take(w);
            }
          });
    ExpectIdentical(eager[static_cast<size_t>(q)], lazy, q);
  }
}

TEST(SyncPointTest, LedgerIsExactAtSyncPointsWithoutAnyFold) {
  common::ThreadPool pool(2);
  auto ledger_of = [](std::vector<Snapshot>* out) {
    return [out](World& w, int) {
      Snapshot snap;
      const SimTime now = w.sim.Now();
      for (uint32_t u = 0; u < kUsers; ++u) {
        for (GpuGeneration gen : cluster::kAllGenerations) {
          snap.Add("user " + std::to_string(u) + " " + cluster::GenerationName(gen),
                   w.ledger.GpuMs(UserId(u), gen, 0, now));
        }
      }
      out->push_back(snap);
    };
  };
  World eager_world;
  World lazy_world;
  std::vector<Snapshot> eager;
  std::vector<Snapshot> lazy;
  Drive(eager_world, pool, kQuanta, EagerTick, ledger_of(&eager));
  Drive(lazy_world, pool, kQuanta, LazyTick, ledger_of(&lazy));
  ASSERT_EQ(eager.size(), lazy.size());
  for (size_t q = 0; q < eager.size(); ++q) {
    ExpectIdentical(eager[q], lazy[q], static_cast<int>(q));
  }
}

TEST(SyncPointTest, SegmentsFoldOnlyAtCloseOrForAReader) {
  common::ThreadPool pool(2);
  World lazy_world;
  World eager_world;
  Drive(lazy_world, pool, 7, LazyTick, [](World&, int) {});
  Drive(eager_world, pool, 7, EagerTick, [](World&, int) {});
  // Job 0 crashed at 250 s (closing its first segment) and has run since
  // 260 s. The lazy executor has folded only the closed segment.
  const Job& lazy = lazy_world.jobs.Get(JobId(0));
  const Job& eager = eager_world.jobs.Get(JobId(0));
  const size_t k80 = cluster::GenerationIndex(GpuGeneration::kK80);
  EXPECT_EQ(lazy.gpu_ms_by_gen[k80], static_cast<double>(Seconds(250)));  // gfair-lint: allow(float-eq)
  EXPECT_EQ(eager.gpu_ms_by_gen[k80],  // gfair-lint: allow(float-eq)
            static_cast<double>(Seconds(250) + Minutes(7) - Seconds(260)));
  // A reader's SyncProgress folds it up to the eager value.
  lazy_world.exec.SyncProgress(JobId(0));
  EXPECT_EQ(lazy.gpu_ms_by_gen[k80], eager.gpu_ms_by_gen[k80]);  // gfair-lint: allow(float-eq)
  EXPECT_EQ(lazy.completed_minibatches, eager.completed_minibatches);  // gfair-lint: allow(float-eq)
}

}  // namespace
}  // namespace gfair::exec
