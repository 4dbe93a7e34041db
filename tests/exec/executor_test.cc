#include "exec/executor.h"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "common/thread_pool.h"
#include "simkit/simulator.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

namespace gfair::exec {
namespace {

using cluster::GpuGeneration;
using workload::Job;
using workload::JobState;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : cluster_(cluster::Topology{{
            {GpuGeneration::kK80, 1, 4},
            {GpuGeneration::kV100, 1, 4},
        }}),
        exec_(sim_, cluster_, workload::ModelZoo::Default(), jobs_, ExecutorConfig{},
              /*seed=*/1) {
    exec_.set_on_job_finished([this](JobId id) { finished_.push_back(id); });
    exec_.set_on_migration_done([this](JobId id) { migrated_.push_back(id); });
  }

  Job& MakeJob(const char* model_name, int gang, double minibatches) {
    const auto& model = workload::ModelZoo::Default().GetByName(model_name);
    return jobs_.Create(UserId(0), model.id, gang, minibatches, sim_.Now());
  }

  ServerId K80() const { return cluster_.servers_of(GpuGeneration::kK80)[0]; }
  ServerId V100() const { return cluster_.servers_of(GpuGeneration::kV100)[0]; }

  simkit::Simulator sim_;
  cluster::Cluster cluster_;
  workload::JobTable jobs_;
  Executor exec_;
  std::vector<JobId> finished_;
  std::vector<JobId> migrated_;
};

TEST_F(ExecutorTest, JobRunsToCompletionAtModelRate) {
  // DCGAN on K80: 16 mb/s. 1600 mini-batches => 100s of work + resume warmup.
  Job& job = MakeJob("DCGAN", 1, 1600.0);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  EXPECT_TRUE(exec_.IsRunning(job.id));
  sim_.Run();
  EXPECT_EQ(job.state, JobState::kFinished);
  ASSERT_EQ(finished_.size(), 1u);
  const SimDuration expected = Seconds(100) + exec_.ResumeLatency(job.model);
  EXPECT_NEAR(static_cast<double>(job.finish_time), static_cast<double>(expected),
              10.0);  // ceil() rounding
  EXPECT_DOUBLE_EQ(job.completed_minibatches, 1600.0);
}

TEST_F(ExecutorTest, FasterGenerationFinishesSooner) {
  Job& slow = MakeJob("ResNeXt-50", 1, 120.0);
  Job& fast = MakeJob("ResNeXt-50", 1, 120.0);
  exec_.MakeResident(slow.id, K80());
  exec_.MakeResident(fast.id, V100());
  exec_.Resume(slow.id);
  exec_.Resume(fast.id);
  sim_.Run();
  // ResNeXt-50 is ~5.9x faster on V100.
  const double slow_work_time =
      static_cast<double>(slow.finish_time) -
      static_cast<double>(exec_.ResumeLatency(slow.model));
  const double fast_work_time =
      static_cast<double>(fast.finish_time) -
      static_cast<double>(exec_.ResumeLatency(fast.model));
  EXPECT_NEAR(slow_work_time / fast_work_time, 7.1 / 1.2, 0.05);
}

TEST_F(ExecutorTest, SuspendStopsProgressAndFreesGpus) {
  Job& job = MakeJob("DCGAN", 2, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  EXPECT_EQ(cluster_.server(K80()).num_free(), 2);
  sim_.RunUntil(Minutes(2));
  exec_.Suspend(job.id);
  EXPECT_EQ(job.state, JobState::kSuspended);
  EXPECT_EQ(cluster_.server(K80()).num_free(), 4);
  const double progress_at_suspend = job.completed_minibatches;
  EXPECT_GT(progress_at_suspend, 0.0);
  sim_.RunUntil(Minutes(10));
  EXPECT_DOUBLE_EQ(job.completed_minibatches, progress_at_suspend);
}

TEST_F(ExecutorTest, ResumeWarmupProducesNoProgress) {
  Job& job = MakeJob("DCGAN", 1, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  const SimDuration warmup = exec_.ResumeLatency(job.model);
  sim_.RunUntil(warmup / 2);
  exec_.SyncProgress(job.id);
  EXPECT_DOUBLE_EQ(job.completed_minibatches, 0.0);
  // But GPU time IS charged during warm-up.
  EXPECT_GT(job.TotalGpuMs(), 0.0);
}

TEST_F(ExecutorTest, SuspendResumeCycleCostsOverheadOnly) {
  Job& job = MakeJob("DCGAN", 1, 16.0 * 600);  // 600s of K80 work
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(3));
  exec_.Suspend(job.id);
  sim_.RunUntil(Minutes(5));
  exec_.Resume(job.id);
  sim_.Run();
  EXPECT_EQ(job.state, JobState::kFinished);
  EXPECT_EQ(job.num_suspends, 1);
  EXPECT_EQ(job.num_resumes, 2);
  // Finish = 600s work + 5min gap... minus the 3min of first-run progress
  // already done; overhead = 2 resumes' warmup. Just check total overhead.
  EXPECT_EQ(job.overhead_ms,
            2 * exec_.ResumeLatency(job.model) + exec_.SuspendLatency(job.model));
}

TEST_F(ExecutorTest, MigrationMovesJobAfterLatency) {
  Job& job = MakeJob("ResNet-50", 2, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(1));
  exec_.Suspend(job.id);
  exec_.Migrate(job.id, V100());
  EXPECT_EQ(job.state, JobState::kMigrating);
  sim_.RunUntil(Minutes(1) + exec_.MigrateLatency(job.model) + kSecond);
  EXPECT_EQ(job.state, JobState::kSuspended);
  EXPECT_EQ(job.server, V100());
  ASSERT_EQ(migrated_.size(), 1u);
  EXPECT_EQ(migrated_[0], job.id);
  EXPECT_EQ(job.num_migrations, 1);
}

TEST_F(ExecutorTest, MigratedJobRunsAtNewGenerationRate) {
  Job& job = MakeJob("ResNet-50", 1, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Migrate(job.id, V100());
  sim_.RunUntil(Hours(1));
  exec_.Resume(job.id);
  const SimTime start = sim_.Now();
  sim_.RunUntil(start + Minutes(10));
  exec_.SyncProgress(job.id);
  const double expected =
      exec_.TrueRate(job.id, GpuGeneration::kV100) *
      ToSeconds(Minutes(10) - exec_.ResumeLatency(job.model));
  EXPECT_NEAR(job.completed_minibatches, expected, 1.0);
}

TEST_F(ExecutorTest, GpuTimeAccountingCallback) {
  double total_gpu_ms = 0.0;
  exec_.set_on_gpu_credit([&](UserId, GpuGeneration gen, SimTime at, int64_t gpu_ms) {
    EXPECT_EQ(gen, GpuGeneration::kK80);
    EXPECT_EQ(at, sim_.Now());
    total_gpu_ms += static_cast<double>(gpu_ms);
  });
  Job& job = MakeJob("DCGAN", 3, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(2));
  exec_.Suspend(job.id);
  EXPECT_DOUBLE_EQ(total_gpu_ms, 3.0 * Minutes(2));
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), total_gpu_ms);
}

TEST_F(ExecutorTest, SyncAllFlushesOpenSegments) {
  Job& job = MakeJob("DCGAN", 2, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(5));
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), 0.0);  // nothing closed yet
  exec_.SyncAll();
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), 2.0 * Minutes(5));
}

TEST_F(ExecutorTest, SyncTwiceDoesNotDoubleCount) {
  Job& job = MakeJob("DCGAN", 1, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(5));
  exec_.SyncProgress(job.id);
  exec_.SyncProgress(job.id);
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), static_cast<double>(Minutes(5)));
  sim_.RunUntil(Minutes(6));
  exec_.SyncProgress(job.id);
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), static_cast<double>(Minutes(6)));
}

TEST_F(ExecutorTest, ObservedRateIsNoisyAroundTruth) {
  Job& job = MakeJob("ResNet-50", 1, 1e9);
  exec_.MakeResident(job.id, V100());
  exec_.Resume(job.id);
  const double truth = exec_.TrueRate(job.id, GpuGeneration::kV100);
  double sum = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double sample = exec_.SampleObservedRate(job.id);
    EXPECT_GT(sample, 0.0);
    sum += sample;
  }
  EXPECT_NEAR(sum / n / truth, 1.0, 0.02);
}

TEST_F(ExecutorTest, LatenciesScaleWithCheckpointSize) {
  const auto& zoo = workload::ModelZoo::Default();
  const auto small = zoo.GetByName("VAE").id;         // 0.2 GB
  const auto large = zoo.GetByName("Transformer").id;  // 2.5 GB
  EXPECT_LT(exec_.SuspendLatency(small), exec_.SuspendLatency(large));
  EXPECT_LT(exec_.ResumeLatency(small), exec_.ResumeLatency(large));
  EXPECT_LT(exec_.MigrateLatency(small), exec_.MigrateLatency(large));
  EXPECT_GT(exec_.MigrateLatency(large),
            exec_.SuspendLatency(large) + exec_.ResumeLatency(large));
}

TEST_F(ExecutorTest, FinishReleasesGpus) {
  Job& job = MakeJob("DCGAN", 4, 16.0);  // 1s of work
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  EXPECT_EQ(cluster_.server(K80()).num_free(), 0);
  sim_.Run();
  EXPECT_EQ(cluster_.server(K80()).num_free(), 4);
  EXPECT_FALSE(job.resident());
}

TEST_F(ExecutorTest, SuspendAtFinishInstantFinishesTheJob) {
  // A suspend at the very millisecond the job's finish event is due, but
  // queued ahead of it: the work is done, so the job finishes at that
  // instant instead of waiting, suspended with nothing left, for a resume
  // it could not take.
  Job& job = MakeJob("DCGAN", 1, 16.0 * 20);  // 20 s of K80 work
  exec_.MakeResident(job.id, K80());
  const SimTime finish_at = Seconds(20) + exec_.ResumeLatency(job.model);
  bool due_one_ms_early = true;
  bool due_at_instant = false;
  sim_.At(finish_at - 1, [&] { due_one_ms_early = exec_.FinishDue(job.id); });
  sim_.At(finish_at, [&] {
    due_at_instant = exec_.FinishDue(job.id);
    exec_.Suspend(job.id);
  });
  exec_.Resume(job.id);  // arms the finish event behind the suspend
  sim_.RunUntil(finish_at);
  EXPECT_FALSE(due_one_ms_early);
  EXPECT_TRUE(due_at_instant);
  EXPECT_EQ(job.state, JobState::kSuspended);
  EXPECT_EQ(job.remaining_minibatches(), 0.0);  // gfair-lint: allow(float-eq)
  EXPECT_TRUE(finished_.empty());

  exec_.FinishSuspendedAtFinish();
  EXPECT_EQ(job.state, JobState::kFinished);
  EXPECT_EQ(job.finish_time, finish_at);
  ASSERT_EQ(finished_.size(), 1u);
  EXPECT_EQ(finished_[0], job.id);
  exec_.FinishSuspendedAtFinish();  // drained: nothing fires twice
  EXPECT_EQ(finished_.size(), 1u);
}

TEST_F(ExecutorTest, ParallelSuspendAtFinishInstantFinishesTheJob) {
  common::ThreadPool pool(2);
  Job& done = MakeJob("DCGAN", 1, 16.0 * 20);
  Job& early = MakeJob("DCGAN", 1, 1e9);
  exec_.MakeResident(done.id, K80());
  exec_.MakeResident(early.id, V100());
  const SimTime finish_at = Seconds(20) + exec_.ResumeLatency(done.model);
  const std::vector<ScheduleOp> k80 = {{done.id, K80(), /*resume=*/false}};
  const std::vector<ScheduleOp> v100 = {{early.id, V100(), /*resume=*/false}};
  sim_.At(finish_at, [&] {
    const Executor::ApplySlice slices[] = {{k80.data(), k80.size()},
                                           {v100.data(), v100.size()}};
    exec_.ApplyDeltaParallel(slices, 2, &pool);
  });
  exec_.Resume(done.id);
  exec_.Resume(early.id);
  sim_.RunUntil(finish_at);
  exec_.FinishSuspendedAtFinish();
  EXPECT_EQ(done.state, JobState::kFinished);
  EXPECT_EQ(done.finish_time, finish_at);
  // Suspended short of its finish: an ordinary suspend with work left.
  EXPECT_EQ(early.state, JobState::kSuspended);
  EXPECT_GT(early.remaining_minibatches(), 0.0);
  EXPECT_EQ(finished_, std::vector<JobId>{done.id});
}

TEST_F(ExecutorTest, DeathOnBadTransitions) {
  Job& job = MakeJob("DCGAN", 1, 100.0);
  EXPECT_DEATH(exec_.Resume(job.id), "suspended");
  exec_.MakeResident(job.id, K80());
  EXPECT_DEATH(exec_.Suspend(job.id), "running");
  exec_.Resume(job.id);
  EXPECT_DEATH(exec_.Migrate(job.id, V100()), "suspend");
}

TEST_F(ExecutorTest, DeathOnOversizedGang) {
  Job& job = MakeJob("DCGAN", 8, 100.0);  // servers have 4 GPUs
  EXPECT_DEATH(exec_.MakeResident(job.id, K80()), "fit");
}

}  // namespace
}  // namespace gfair::exec
