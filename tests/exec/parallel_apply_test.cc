// ApplyDeltaParallel: per-server slices fanned across a ThreadPool must
// leave the executor in a state bit-identical to applying the same slices
// serially in order — job states, overhead accounting, finish timing and
// progress all match. This test (and the scheduler-level decision-stream
// equivalence in tests/sched/equivalence_test.cc) runs under TSan in CI.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "simkit/simulator.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

namespace gfair::exec {
namespace {

using cluster::GpuGeneration;
using workload::Job;
using workload::JobState;

constexpr int kServers = 4;
constexpr int kJobsPerServer = 4;

struct World {
  World() : World(ExecutorConfig{}) {}
  explicit World(const ExecutorConfig& config)
      : cluster(cluster::Topology{{{GpuGeneration::kK80, kServers, 4}}}),
        exec(sim, cluster, workload::ModelZoo::Default(), jobs, config,
             /*seed=*/7) {}

  // Four jobs per server, the first two running; finite lengths staggered so
  // finish events interleave across servers.
  void Populate() {
    const auto& model = workload::ModelZoo::Default().GetByName("DCGAN");
    const auto servers = cluster.servers_of(GpuGeneration::kK80);
    for (int s = 0; s < kServers; ++s) {
      for (int j = 0; j < kJobsPerServer; ++j) {
        Job& job = jobs.Create(UserId(0), model.id, /*gang_size=*/1,
                               /*minibatches=*/5000.0 + 37.0 * (s * 4 + j),
                               sim.Now());
        exec.MakeResident(job.id, servers[static_cast<size_t>(s)]);
        if (j < 2) {
          exec.Resume(job.id);
        }
      }
    }
    sim.RunUntil(Minutes(1));
  }

  // The flip: per server, suspend the running pair then resume the idle pair.
  std::vector<std::vector<ScheduleOp>> FlipSlices() const {
    std::vector<std::vector<ScheduleOp>> slices;
    const auto servers = cluster.servers_of(GpuGeneration::kK80);
    for (int s = 0; s < kServers; ++s) {
      std::vector<ScheduleOp> ops;
      for (int j = 0; j < kJobsPerServer; ++j) {
        const JobId id(s * kJobsPerServer + j);
        ops.push_back({id, servers[static_cast<size_t>(s)], /*resume=*/j >= 2});
      }
      slices.push_back(std::move(ops));
    }
    return slices;
  }

  simkit::Simulator sim;
  cluster::Cluster cluster;
  workload::JobTable jobs;
  Executor exec;
};

void ExpectWorldsIdentical(const World& a, const World& b) {
  ASSERT_EQ(a.jobs.All().size(), b.jobs.All().size());
  for (size_t i = 0; i < a.jobs.All().size(); ++i) {
    const Job* ja = a.jobs.All()[i];
    const Job* jb = b.jobs.All()[i];
    const std::string ctx = "job " + std::to_string(i);
    EXPECT_EQ(ja->state, jb->state) << ctx;
    EXPECT_EQ(ja->server, jb->server) << ctx;
    EXPECT_EQ(ja->overhead_ms, jb->overhead_ms) << ctx;
    EXPECT_EQ(ja->num_suspends, jb->num_suspends) << ctx;
    EXPECT_EQ(ja->finish_time, jb->finish_time) << ctx;
    // Bit-identical, not approximately equal: the parallel path must not
    // reorder any floating-point accumulation.
    EXPECT_EQ(ja->completed_minibatches,  // gfair-lint: allow(float-eq)
              jb->completed_minibatches)
        << ctx;
  }
  EXPECT_EQ(a.exec.warmup_bubble_ms(), b.exec.warmup_bubble_ms());
  EXPECT_EQ(a.exec.overlap_saved_ms(), b.exec.overlap_saved_ms());
}

// Every global migration accumulator, not just the two the flip scenario
// exercises: the accumulators are ReduceToken-gated serial-commit state
// (exec/executor.h, MigrationAccounting), so the parallel prepare fan-out
// must leave all of them exactly as the serial path does.
void ExpectAccountingIdentical(const MigrationAccounting& a,
                               const MigrationAccounting& b) {
  EXPECT_EQ(a.bytes_gb(), b.bytes_gb());
  EXPECT_EQ(a.bubble_ms(), b.bubble_ms());
  EXPECT_EQ(a.warmup_bubble_ms(), b.warmup_bubble_ms());
  EXPECT_EQ(a.overlap_saved_ms(), b.overlap_saved_ms());
  EXPECT_EQ(a.server_failures(), b.server_failures());
  EXPECT_EQ(a.server_recoveries(), b.server_recoveries());
  EXPECT_EQ(a.failures_dest_down(), b.failures_dest_down());
  EXPECT_EQ(a.failures_flake(), b.failures_flake());
  EXPECT_EQ(a.jobs_orphaned(), b.jobs_orphaned());
  EXPECT_EQ(a.precopies_started(), b.precopies_started());
  EXPECT_EQ(a.precopies_aborted(), b.precopies_aborted());
}

TEST(ParallelApplyTest, MatchesSerialSliceApplicationBitForBit) {
  World serial;
  World parallel;
  serial.Populate();
  parallel.Populate();

  const auto slices = serial.FlipSlices();
  for (const auto& ops : slices) {
    serial.exec.ApplyDelta(ops);
  }

  common::ThreadPool pool(4);
  const auto par_slices = parallel.FlipSlices();
  std::vector<Executor::ApplySlice> slice_views;
  for (const auto& ops : par_slices) {
    slice_views.push_back({ops.data(), ops.size()});
  }
  parallel.exec.ApplyDeltaParallel(slice_views.data(), slice_views.size(), &pool);

  ExpectWorldsIdentical(serial, parallel);

  // Let the resumed jobs run to completion: finish events must fire at
  // identical times and the final accounting must match exactly.
  serial.sim.Run();
  parallel.sim.Run();
  EXPECT_EQ(serial.sim.Now(), parallel.sim.Now());
  ExpectWorldsIdentical(serial, parallel);
}

// Regression for the accumulator audit: with warmup overlap on, CommitOp
// flushes warmup-bubble and overlap-saved time into the ReduceToken-gated
// MigrationAccounting. The parallel fan-out only *prepares* — every
// accumulator bump happens in the serial commit pass — so all eleven
// accounting streams must match the serial apply bit for bit, and the
// scenario must actually exercise them (nonzero overlap savings).
TEST(ParallelApplyTest, AccountingMatchesSerialWithOverlapWarmup) {
  ExecutorConfig config;
  config.overlap_warmup = true;
  World serial(config);
  World parallel(config);
  serial.Populate();
  parallel.Populate();

  const auto slices = serial.FlipSlices();
  for (const auto& ops : slices) {
    serial.exec.ApplyDelta(ops);
  }

  common::ThreadPool pool(4);
  const auto par_slices = parallel.FlipSlices();
  std::vector<Executor::ApplySlice> slice_views;
  for (const auto& ops : par_slices) {
    slice_views.push_back({ops.data(), ops.size()});
  }
  parallel.exec.ApplyDeltaParallel(slice_views.data(), slice_views.size(), &pool);

  ExpectWorldsIdentical(serial, parallel);
  ExpectAccountingIdentical(serial.exec.accounting(), parallel.exec.accounting());
  // The flip suspends before it resumes within each slice, so the resume
  // warmup hides behind the suspend cost and the overlap stream is nonzero.
  EXPECT_GT(serial.exec.accounting().overlap_saved_ms(), 0);
}

// A null pool runs the prepare pass inline on the caller — the scheduler's
// tick does this whenever apply_threads is 1. Two calls of different slice
// counts go through the same reused scratch; both must match the serial
// per-slice ApplyDelta exactly, overlap accounting included.
TEST(ParallelApplyTest, NullPoolPreparesInlineBitForBit) {
  ExecutorConfig config;
  config.overlap_warmup = true;
  World serial(config);
  World inline_apply(config);
  serial.Populate();
  inline_apply.Populate();

  const auto slices = serial.FlipSlices();
  for (const auto& ops : slices) {
    serial.exec.ApplyDelta(ops);
  }
  const auto inline_slices = inline_apply.FlipSlices();
  std::vector<Executor::ApplySlice> slice_views;
  for (const auto& ops : inline_slices) {
    slice_views.push_back({ops.data(), ops.size()});
  }
  inline_apply.exec.ApplyDeltaParallel(slice_views.data(), slice_views.size(),
                                       /*pool=*/nullptr);
  ExpectWorldsIdentical(serial, inline_apply);
  ExpectAccountingIdentical(serial.exec.accounting(), inline_apply.exec.accounting());

  // Flip back the first server only: a one-slice call after a four-slice one.
  serial.sim.RunUntil(Minutes(2));
  inline_apply.sim.RunUntil(Minutes(2));
  std::vector<ScheduleOp> back;
  for (int j = 0; j < kJobsPerServer; ++j) {
    back.push_back({JobId((j + 2) % kJobsPerServer), slices[0][0].server,
                    /*resume=*/j >= 2});
  }
  serial.exec.ApplyDelta(back);
  const Executor::ApplySlice one{back.data(), back.size()};
  inline_apply.exec.ApplyDeltaParallel(&one, 1, /*pool=*/nullptr);
  ExpectWorldsIdentical(serial, inline_apply);

  serial.sim.Run();
  inline_apply.sim.Run();
  EXPECT_EQ(serial.sim.Now(), inline_apply.sim.Now());
  ExpectWorldsIdentical(serial, inline_apply);
  ExpectAccountingIdentical(serial.exec.accounting(), inline_apply.exec.accounting());
}

TEST(ParallelApplyTest, SingleSliceAndEmptySlicesAreHandled) {
  World world;
  world.Populate();
  common::ThreadPool pool(2);
  world.exec.ApplyDeltaParallel(nullptr, 0, &pool);  // no-op

  const auto slices = world.FlipSlices();
  const Executor::ApplySlice one{slices[0].data(), slices[0].size()};
  world.exec.ApplyDeltaParallel(&one, 1, &pool);
  EXPECT_EQ(world.jobs.Get(JobId(0)).state, JobState::kSuspended);
  EXPECT_EQ(world.jobs.Get(JobId(2)).state, JobState::kRunning);
}

}  // namespace
}  // namespace gfair::exec
