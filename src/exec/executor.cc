#include "exec/executor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/log.h"
#include "common/thread_pool.h"

namespace gfair::exec {

using cluster::GpuGeneration;
using workload::Job;
using workload::JobState;

Executor::Executor(simkit::Simulator& sim, cluster::Cluster& cluster,
                   const workload::ModelZoo& zoo, workload::JobTable& jobs,
                   ExecutorConfig config, uint64_t seed)
    : sim_(sim),
      cluster_(cluster),
      zoo_(zoo),
      jobs_(jobs),
      config_(config),
      rng_(seed),
      fault_rng_(seed ^ 0x9E3779B97F4A7C15ULL) {}

SimDuration Executor::SuspendLatency(workload::ModelId model) const {
  const auto& profile = zoo_.Get(model);
  return Seconds(config_.suspend_base_s + config_.suspend_per_gb_s * profile.checkpoint_gb);
}

SimDuration Executor::ResumeLatency(workload::ModelId model) const {
  const auto& profile = zoo_.Get(model);
  return Seconds(config_.resume_base_s + config_.resume_per_gb_s * profile.checkpoint_gb);
}

double Executor::CompressedGb(workload::ModelId model) const {
  return zoo_.Get(model).checkpoint_gb / config_.compress_ratio;
}

SimDuration Executor::TransferTime(double compressed_gb, double compress_cpu_s) const {
  return Seconds(compressed_gb / config_.migrate_bw_gbps + compress_cpu_s);
}

SimDuration Executor::MigrateLatency(workload::ModelId model) const {
  const double cpu_s =
      config_.compress_seconds_per_gb * zoo_.Get(model).checkpoint_gb;
  return SuspendLatency(model) + TransferTime(CompressedGb(model), cpu_s) +
         ResumeLatency(model);
}

const Executor::ModelCosts& Executor::CostsFor(workload::ModelId model) {
  const size_t idx = model.value();
  if (idx >= model_costs_.size()) {
    model_costs_.resize(idx + 1);
  }
  ModelCosts& costs = model_costs_[idx];
  if (!costs.init) {
    costs.suspend = SuspendLatency(model);
    costs.resume = ResumeLatency(model);
    costs.init = true;
  }
  return costs;
}

simkit::TimerId Executor::FinishTimerFor(JobId id) {
  const size_t idx = id.value();
  if (idx >= finish_timer_.size()) {
    finish_timer_.resize(idx + 1, simkit::kInvalidTimer);
  }
  if (finish_timer_[idx] == simkit::kInvalidTimer) {
    finish_timer_[idx] = sim_.CreateTimer([this, id]() { OnFinishEvent(id); });
  }
  return finish_timer_[idx];
}

void Executor::MakeResident(JobId id, ServerId server) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kQueued, "MakeResident requires a queued job");
  const auto& target = cluster_.server(server);
  GFAIR_CHECK_MSG(target.up(), "MakeResident on a down server");
  GFAIR_CHECK_MSG(job.gang_size <= target.num_gpus(),
                  "gang cannot ever fit on this server");
  GFAIR_CHECK_MSG(zoo_.Get(job.model).FitsGeneration(target.generation()),
                  "model does not fit this generation's GPU memory");
  job.server = server;
  job.state = JobState::kSuspended;
}

double Executor::TrueRate(JobId id, GpuGeneration gen) const {
  const Job& job = jobs_.Get(id);
  return zoo_.Get(job.model).GangThroughput(gen, job.gang_size);
}

void Executor::Resume(JobId id) { ResumeWithOverlap(id, 0); }

void Executor::ResumeWithOverlap(JobId id, SimDuration overlap_allowance) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kSuspended, "Resume requires a suspended job");
  cluster::Server& server = cluster_.server(job.server);
  GFAIR_CHECK_MSG(server.up(), "Resume on a down server");
  GFAIR_CHECK_MSG(server.CanFit(job.gang_size), "Resume without free GPUs");
  server.Allocate(id, job.gang_size);

  // One profile lookup serves both the warm-up latency and the true rate
  // (ResumeLatency + TrueRate would fetch it twice on the per-quantum path).
  const auto& profile = zoo_.Get(job.model);
  RunSegment seg;
  seg.start = sim_.Now();
  seg.warmup = CostsFor(job.model).resume;
  if (overlap_allowance > 0) {
    // Overlap mode: the warm-up hides behind the drain of the jobs suspended
    // earlier in the same apply slice (see ExecutorConfig::overlap_warmup);
    // only the un-hidden prefix bubbles.
    const SimDuration hidden = std::min(seg.warmup, overlap_allowance);
    seg.warmup -= hidden;
    acct_.AddOverlapSaved(hidden, common::ReduceToken{});
  }
  seg.gen = server.generation();
  seg.rate = profile.GangThroughput(seg.gen, job.gang_size);
  GFAIR_CHECK(seg.rate > 0.0);

  const double remaining = job.remaining_minibatches();
  GFAIR_CHECK(remaining > 0.0);
  const SimDuration work_time =
      static_cast<SimDuration>(std::ceil(remaining / seg.rate * kSecond));
  seg.finish_at = seg.start + seg.warmup + work_time;
  sim_.ArmTimerAt(FinishTimerFor(id), seg.finish_at);

  if (id.value() >= segments_.size()) {
    segments_.resize(id.value() + 1);
    running_.resize(id.value() + 1);
  }
  running_[id.value()] = 1;
  seg.running_pos = static_cast<uint32_t>(running_list_.size());
  seg.next_sync = static_cast<uint32_t>(sync_points_.size());
  running_list_.push_back(id);
  segments_[id.value()] = seg;
  OpenHold(job.user, seg.gen, job.gang_size, seg.start);
  job.state = JobState::kRunning;
  job.num_resumes += 1;
  job.overhead_ms += seg.warmup;
  acct_.AddWarmupBubble(seg.warmup, common::ReduceToken{});
}

double Executor::SegmentProgress(const RunSegment& seg, SimDuration elapsed) {
  const SimDuration productive = std::max<SimDuration>(0, elapsed - seg.warmup);
  return seg.rate * ToSeconds(productive);
}

Executor::RunSegment& Executor::SegmentOf(JobId id) {
  GFAIR_CHECK_MSG(IsRunning(id), "job has no active run segment");
  return segments_[id.value()];
}

void Executor::FoldChunk(Job& job, RunSegment& seg, SimTime until) {
  const SimDuration elapsed = until - seg.start;
  // elapsed == 0 contributes exactly 0.0 to both accumulators, so skipping
  // the arithmetic is bit-identical — and it is the common case at quantum
  // edges, where a segment closes at the sync point its chunk starts from.
  if (elapsed <= 0) {
    return;
  }
  job.completed_minibatches = std::min(
      job.total_minibatches, job.completed_minibatches + SegmentProgress(seg, elapsed));
  job.gpu_ms_by_gen[cluster::GenerationIndex(seg.gen)] +=
      static_cast<double>(elapsed) * job.gang_size;
  seg.warmup = std::max<SimDuration>(0, seg.warmup - elapsed);
  seg.start = until;
}

SimTime Executor::FoldToNow(Job& job, RunSegment& seg) const {
  // The same chunks, in the same order, as flushing the segment at every
  // sync point would have produced: the float progress sum is bit-identical.
  for (; seg.next_sync < sync_points_.size(); ++seg.next_sync) {
    FoldChunk(job, seg, sync_points_[seg.next_sync]);
  }
  const SimTime chunk_start = seg.start;
  FoldChunk(job, seg, sim_.Now());
  return chunk_start;
}

Executor::PoolHold& Executor::HoldOf(UserId user, GpuGeneration pool) {
  if (user.value() >= pool_holds_.size()) {
    pool_holds_.resize(user.value() + 1);
  }
  return pool_holds_[user.value()][cluster::GenerationIndex(pool)];
}

void Executor::OpenHold(UserId user, GpuGeneration pool, int gang, SimTime start) {
  PoolHold& hold = HoldOf(user, pool);
  hold.gpus += gang;
  hold.gang_start_ms += static_cast<int64_t>(gang) * start;
}

void Executor::CloseHold(UserId user, GpuGeneration pool, int gang,
                         SimTime chunk_start) {
  PoolHold& hold = HoldOf(user, pool);
  hold.gpus -= gang;
  hold.gang_start_ms -= static_cast<int64_t>(gang) * chunk_start;
  const SimTime now = sim_.Now();
  const int64_t gpu_ms = static_cast<int64_t>(gang) * (now - chunk_start);
  if (gpu_ms > 0 && on_gpu_credit_) {
    on_gpu_credit_(user, pool, now, gpu_ms);
  }
}

void Executor::CloseSegment(Job& job, bool cancel_finish_event) {
  RunSegment& seg = SegmentOf(job.id);
  CloseHold(job.user, seg.gen, job.gang_size, FoldToNow(job, seg));

  if (cancel_finish_event) {
    sim_.DisarmTimer(finish_timer_[job.id.value()]);
  }

  cluster_.server(job.server).Release(job.id);
  const JobId moved = running_list_.back();
  running_list_[seg.running_pos] = moved;
  segments_[moved.value()].running_pos = seg.running_pos;
  running_list_.pop_back();
  running_[job.id.value()] = 0;
}

void Executor::Suspend(JobId id) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kRunning, "Suspend requires a running job");
  const bool done = FinishDue(id);
  CloseSegment(job, /*cancel_finish_event=*/true);
  job.state = JobState::kSuspended;
  job.num_suspends += 1;
  job.overhead_ms += CostsFor(job.model).suspend;
  if (done) {
    // Caught at its finish instant, ahead of the finish event: the work is
    // done (as the event itself would have recorded; see OnFinishEvent).
    job.completed_minibatches = job.total_minibatches;
    done_at_suspend_.push_back(id);
  }
  job.checkpointed_minibatches = job.completed_minibatches;
}

void Executor::FinishSuspendedAtFinish() {
  if (done_at_suspend_.empty()) {
    return;
  }
  std::vector<JobId> done;
  done.swap(done_at_suspend_);  // the callbacks may suspend more jobs
  for (JobId id : done) {
    Job& job = jobs_.Get(id);
    GFAIR_CHECK_MSG(job.state == JobState::kSuspended,
                    "a job caught at its finish instant was moved before finishing");
    CompleteJob(job);
  }
}

void Executor::ApplyDelta(const ScheduleOp* ops, size_t count) {
  // A slice's suspends (PlanDiffer orders them first) bound how much of a
  // subsequent resume's warm-up can hide behind the outgoing jobs' drains.
  SimDuration overlap_allowance = 0;
  for (size_t i = 0; i < count; ++i) {
    // Each op's job record and segment are scattered by id; hint the next
    // op's lines while this one applies.
    if (i + 1 < count) {
      jobs_.Prefetch(ops[i + 1].job);
      PrefetchJobState(ops[i + 1].job);
    }
    const ScheduleOp& op = ops[i];
    if (op.resume) {
      ResumeWithOverlap(op.job, overlap_allowance);
    } else {
      Suspend(op.job);
      if (config_.overlap_warmup) {
        overlap_allowance =
            std::max(overlap_allowance, CostsFor(jobs_.Get(op.job).model).suspend);
      }
    }
  }
}

void Executor::ApplyDeltaParallel(const ApplySlice* slices, size_t num_slices,
                                  common::ThreadPool* pool) {
  // Serial prologue: pre-size every shared dense array and warm the lazy
  // per-model cost cache, so the parallel phase performs no allocation and
  // no first-touch initialization (either would race).
  size_t total_ops = 0;
  size_t max_job = 0;
  slice_offsets_.resize(num_slices);
  for (size_t s = 0; s < num_slices; ++s) {
    slice_offsets_[s] = total_ops;
    total_ops += slices[s].count;
    for (size_t i = 0; i < slices[s].count; ++i) {
      max_job = std::max(max_job, static_cast<size_t>(slices[s].ops[i].job.value()));
      CostsFor(jobs_.Get(slices[s].ops[i].job).model);
    }
  }
  if (total_ops == 0) {
    return;
  }
  if (max_job >= segments_.size()) {
    segments_.resize(max_job + 1);
    running_.resize(max_job + 1);
  }
  prepared_scratch_.assign(total_ops, PreparedOp{});

  // gfair-parallel-apply-begin — the prepare fan-out. Only per-job /
  // per-server state of the slice's own server may be touched here; every
  // order-sensitive or global concern (running-list edits, timer
  // arms/disarms, the acct_ accumulators, pool holds, callbacks, RNG)
  // belongs to the serial commit pass. gfair_lint's parallel-region-write
  // rule enforces the denylist over this region.
  // Parallel prepare: per-job and per-server state only. Slices target
  // pairwise-distinct servers (caller contract), so two chunks never touch
  // the same job, segment slot, or server occupancy.
  const auto prepare = [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      PreparedOp* prepared = prepared_scratch_.data() + slice_offsets_[s];
      SimDuration overlap_allowance = 0;
      for (size_t i = 0; i < slices[s].count; ++i) {
        const ScheduleOp& op = slices[s].ops[i];
        if (op.resume) {
          prepared[i] = PrepareResume(op.job, overlap_allowance);
        } else {
          prepared[i] = PrepareSuspend(op.job);
          if (config_.overlap_warmup) {
            overlap_allowance = std::max(
                overlap_allowance, model_costs_[jobs_.Get(op.job).model.value()].suspend);
          }
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_slices, prepare);
  } else {
    prepare(0, num_slices);
  }
  // gfair-parallel-apply-end

  // Serial commit, in op order: exactly the sequence of running-list edits,
  // timer arms/disarms, counter bumps, pool holds and credits the serial
  // ApplyDelta performs — same event ids, same ledger stream.
  for (size_t s = 0; s < num_slices; ++s) {
    const PreparedOp* prepared = prepared_scratch_.data() + slice_offsets_[s];
    for (size_t i = 0; i < slices[s].count; ++i) {
      CommitOp(slices[s].ops[i], prepared[i]);
    }
  }
}

// gfair-parallel-apply-begin — PrepareResume/PrepareSuspend bodies run
// concurrently across slices (same contract as the fan-out lambda above).
Executor::PreparedOp Executor::PrepareResume(JobId id, SimDuration overlap_allowance) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kSuspended, "Resume requires a suspended job");
  cluster::Server& server = cluster_.server(job.server);
  GFAIR_CHECK_MSG(server.up(), "Resume on a down server");
  GFAIR_CHECK_MSG(server.CanFit(job.gang_size), "Resume without free GPUs");
  server.Allocate(id, job.gang_size);

  const auto& profile = zoo_.Get(job.model);
  RunSegment seg;
  seg.start = sim_.Now();
  seg.warmup = model_costs_[job.model.value()].resume;
  SimDuration hidden = 0;
  if (overlap_allowance > 0) {
    hidden = std::min(seg.warmup, overlap_allowance);
    seg.warmup -= hidden;
  }
  seg.gen = server.generation();
  seg.rate = profile.GangThroughput(seg.gen, job.gang_size);
  GFAIR_CHECK(seg.rate > 0.0);

  const double remaining = job.remaining_minibatches();
  GFAIR_CHECK(remaining > 0.0);
  const SimDuration work_time =
      static_cast<SimDuration>(std::ceil(remaining / seg.rate * kSecond));
  seg.finish_at = seg.start + seg.warmup + work_time;

  seg.next_sync = static_cast<uint32_t>(sync_points_.size());
  segments_[id.value()] = seg;
  // This job's own byte (a distinct memory location from every other
  // slice's); running_pos is assigned at commit.
  running_[id.value()] = 1;
  job.state = JobState::kRunning;
  job.num_resumes += 1;
  job.overhead_ms += seg.warmup;

  PreparedOp out;
  out.finish_at = seg.finish_at;
  out.overlap_hidden = hidden;
  out.user = job.user;
  out.gen = seg.gen;
  out.gpus = job.gang_size;
  return out;
}

Executor::PreparedOp Executor::PrepareSuspend(JobId id) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kRunning, "Suspend requires a running job");
  GFAIR_CHECK_MSG(IsRunning(id), "job has no active run segment");
  RunSegment& seg = segments_[id.value()];
  PreparedOp out;
  out.done = seg.finish_at <= sim_.Now();
  out.chunk_start = FoldToNow(job, seg);
  cluster_.server(job.server).Release(job.id);
  // running_ flips at commit, together with the running-list edit it guards.

  job.state = JobState::kSuspended;
  job.num_suspends += 1;
  job.overhead_ms += model_costs_[job.model.value()].suspend;
  if (out.done) {
    job.completed_minibatches = job.total_minibatches;  // see Suspend
  }
  job.checkpointed_minibatches = job.completed_minibatches;

  out.user = job.user;
  out.gen = seg.gen;
  out.gpus = job.gang_size;
  return out;
}
// gfair-parallel-apply-end

void Executor::CommitOp(const ScheduleOp& op, const PreparedOp& prepared) {
  RunSegment& seg = segments_[op.job.value()];
  if (op.resume) {
    seg.running_pos = static_cast<uint32_t>(running_list_.size());
    running_list_.push_back(op.job);
    sim_.ArmTimerAt(FinishTimerFor(op.job), prepared.finish_at);
    OpenHold(prepared.user, prepared.gen, prepared.gpus, seg.start);
    acct_.AddWarmupBubble(seg.warmup, common::ReduceToken{});
    acct_.AddOverlapSaved(prepared.overlap_hidden, common::ReduceToken{});
  } else {
    sim_.DisarmTimer(finish_timer_[op.job.value()]);
    CloseHold(prepared.user, prepared.gen, prepared.gpus, prepared.chunk_start);
    if (prepared.done) {
      done_at_suspend_.push_back(op.job);
    }
    const JobId moved = running_list_.back();
    running_list_[seg.running_pos] = moved;
    segments_[moved.value()].running_pos = seg.running_pos;
    running_list_.pop_back();
    running_[op.job.value()] = 0;
  }
}

void Executor::InjectCrash(JobId id) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kRunning || job.state == JobState::kSuspended,
                  "InjectCrash requires a running or suspended job");
  if (job.state == JobState::kRunning) {
    // Close the segment normally (GPU time since the checkpoint was really
    // burned and stays charged), then roll progress back.
    CloseSegment(job, /*cancel_finish_event=*/true);
    job.state = JobState::kSuspended;
  }
  const double lost = job.completed_minibatches - job.checkpointed_minibatches;
  GFAIR_CHECK(lost >= -1e-9);
  job.completed_minibatches = job.checkpointed_minibatches;
  job.num_crashes += 1;
  GFAIR_DLOG << "crash: job " << id << " lost " << lost << " mini-batches";
}

void Executor::OnFinishEvent(JobId id) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK(job.state == JobState::kRunning);
  CloseSegment(job, /*cancel_finish_event=*/false);
  CompleteJob(job);
}

void Executor::CompleteJob(Job& job) {
  const JobId id = job.id;
  // Guard against floating-point shortfall: the event fires at ceil() time.
  job.completed_minibatches = job.total_minibatches;
  job.state = JobState::kFinished;
  job.finish_time = sim_.Now();
  job.server = ServerId::Invalid();
  GFAIR_DLOG << "job " << id << " finished at " << FormatDuration(sim_.Now());
  if (on_finished_) {
    on_finished_(id);
  }
}

void Executor::Migrate(JobId id, ServerId dest) {
  DoMigrate(id, dest, /*transfer_fraction=*/1.0);
}

void Executor::MigrateTail(JobId id, ServerId dest) {
  GFAIR_CHECK_MSG(config_.precopy, "MigrateTail without precopy enabled");
  DoMigrate(id, dest, config_.precopy_dirty_fraction);
}

void Executor::DoMigrate(JobId id, ServerId dest, double transfer_fraction) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kSuspended,
                  "Migrate requires a suspended job (suspend first)");
  GFAIR_CHECK(dest.valid() && dest != job.server);
  const cluster::Server& target = cluster_.server(dest);
  GFAIR_CHECK_MSG(target.up(), "Migrate to a down server");
  GFAIR_CHECK_MSG(job.gang_size <= target.num_gpus(), "gang cannot fit on destination");
  GFAIR_CHECK_MSG(zoo_.Get(job.model).FitsGeneration(target.generation()),
                  "model does not fit destination generation's GPU memory");
  GFAIR_CHECK(transfer_fraction >= 0.0 && transfer_fraction <= 1.0);

  job.state = JobState::kMigrating;
  // Concurrent checkpoint transfers share the migration network: stretch the
  // transfer by the contention factor for each migration already in flight.
  const double stretch =
      1.0 + config_.migrate_contention * static_cast<double>(migrations_in_flight_);
  const double wire_gb = CompressedGb(job.model) * transfer_fraction;
  const double compress_cpu_s = config_.compress_seconds_per_gb *
                                zoo_.Get(job.model).checkpoint_gb * transfer_fraction;
  const SimDuration fixed = SuspendLatency(job.model) + ResumeLatency(job.model);
  const SimDuration transfer = TransferTime(wire_gb, compress_cpu_s);
  const SimDuration latency =
      fixed + static_cast<SimDuration>(static_cast<double>(transfer) * stretch);
  job.overhead_ms += latency;
  job.num_migrations += 1;
  job.checkpointed_minibatches = job.completed_minibatches;
  migrations_in_flight_ += 1;
  acct_.AddTransfer(wire_gb, common::ReduceToken{});
  acct_.AddBubble(latency, common::ReduceToken{});
  sim_.After(latency, [this, id, dest]() { FinishMigration(id, dest); });
}

void Executor::StartPreCopy(JobId id, ServerId dest) {
  GFAIR_CHECK_MSG(config_.precopy, "StartPreCopy without precopy enabled");
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kRunning || job.state == JobState::kSuspended,
                  "StartPreCopy requires a resident job");
  GFAIR_CHECK(dest.valid() && dest != job.server);
  const cluster::Server& target = cluster_.server(dest);
  GFAIR_CHECK_MSG(target.up(), "StartPreCopy to a down server");
  GFAIR_CHECK_MSG(job.gang_size <= target.num_gpus(), "gang cannot fit on destination");
  GFAIR_CHECK_MSG(zoo_.Get(job.model).FitsGeneration(target.generation()),
                  "model does not fit destination generation's GPU memory");

  // The bulk ships the whole compressed checkpoint while the job keeps its
  // source state (running or suspended — it stays schedulable either way, so
  // none of this is bubble time and no overhead is charged to the job).
  const double stretch =
      1.0 + config_.migrate_contention * static_cast<double>(migrations_in_flight_);
  const double wire_gb = CompressedGb(job.model);
  const double compress_cpu_s =
      config_.compress_seconds_per_gb * zoo_.Get(job.model).checkpoint_gb;
  const SimDuration transfer = TransferTime(wire_gb, compress_cpu_s);
  const SimDuration bulk =
      static_cast<SimDuration>(static_cast<double>(transfer) * stretch);
  migrations_in_flight_ += 1;
  acct_.AddTransfer(wire_gb, common::ReduceToken{});
  acct_.CountPrecopyStarted(common::ReduceToken{});
  pending_precopies_.push_back(PendingPrecopy{id, job.server, dest});
  const ServerId source = job.server;
  sim_.After(bulk, [this, id, source, dest]() { PrecopyCutover(id, source, dest); });
}

void Executor::PrecopyCutover(JobId id, ServerId source, ServerId dest) {
  migrations_in_flight_ -= 1;
  GFAIR_CHECK(migrations_in_flight_ >= 0);
  for (size_t i = 0; i < pending_precopies_.size(); ++i) {
    const PendingPrecopy& p = pending_precopies_[i];
    if (p.job == id && p.source == source && p.dest == dest) {
      pending_precopies_[i] = pending_precopies_.back();
      pending_precopies_.pop_back();
      break;
    }
  }

  // The world may have moved on during the bulk transfer. A job that
  // finished, was orphaned, or otherwise left its source makes the shipped
  // checkpoint useless — the transfer is abandoned (wasted bytes, but no
  // failure: the job never stopped running anywhere).
  Job& job = jobs_.Get(id);
  const bool still_at_source =
      (job.state == JobState::kRunning || job.state == JobState::kSuspended) &&
      job.server == source;
  if (!still_at_source) {
    acct_.CountPrecopyAborted(common::ReduceToken{});
    GFAIR_DLOG << "pre-copy of job " << id << " abandoned (job left server "
               << source << ")";
    return;
  }
  if (!cluster_.server(dest).up()) {
    // The destination died mid-flight. Unlike a stop-and-copy landing
    // failure this is cheap — the job kept running at its source — but it
    // is still an attributed failure for E10/E14.
    acct_.CountFailureDestDown(common::ReduceToken{});
    job.num_migration_failures += 1;
    acct_.CountPrecopyAborted(common::ReduceToken{});
    GFAIR_DLOG << "pre-copy of job " << id << " to server " << dest
               << " failed: destination down";
    if (on_migration_failed_) {
      on_migration_failed_(id, dest);
    }
    return;
  }
  // Ask the scheduler to cut over: suspend/detach the job and start the
  // stop-and-copy tail (MigrateTail). It may decline — e.g. it dropped its
  // pre-copy claim when the job was orphaned and re-placed back onto the
  // same server — which abandons the transfer like any other stale bulk.
  const bool proceeded = on_precopy_cutover_ && on_precopy_cutover_(id, dest);
  if (!proceeded) {
    acct_.CountPrecopyAborted(common::ReduceToken{});
  }
}

void Executor::FinishMigration(JobId id, ServerId dest) {
  Job& moved = jobs_.Get(id);
  GFAIR_CHECK(moved.state == JobState::kMigrating);
  migrations_in_flight_ -= 1;
  GFAIR_CHECK(migrations_in_flight_ >= 0);

  // A transfer can fail at landing: the destination died while the
  // checkpoint was in flight, or the transfer itself flaked. The prob-zero
  // short-circuit also skips the RNG draw, keeping failure-free runs
  // bit-identical to the pre-fault-plane executor. Given prob > 0 the flake
  // draw stays unconditional — even when the destination is down — so the
  // fault stream does not depend on cluster state; a down destination takes
  // attribution priority over a simultaneous flake.
  const bool dest_down = !cluster_.server(dest).up();
  const bool flaked = config_.migrate_failure_prob > 0.0 &&
                      fault_rng_.Bernoulli(config_.migrate_failure_prob);
  if (!dest_down && !flaked) {
    moved.server = dest;
    moved.state = JobState::kSuspended;
    if (on_migrated_) {
      on_migrated_(id);
    }
    return;
  }

  moved.num_migration_failures += 1;
  if (dest_down) {
    acct_.CountFailureDestDown(common::ReduceToken{});
  } else {
    acct_.CountFailureFlake(common::ReduceToken{});
  }
  // The checkpoint is durable, so the job falls back to its source — unless
  // the source died too while the transfer was in flight, which orphans it.
  if (moved.server.valid() && cluster_.server(moved.server).up()) {
    moved.state = JobState::kSuspended;
    GFAIR_DLOG << "migration of job " << id << " to server " << dest
               << " failed; back on server " << moved.server;
    if (on_migration_failed_) {
      on_migration_failed_(id, dest);
    }
  } else {
    GFAIR_DLOG << "migration of job " << id << " to server " << dest
               << " failed with the source down too; orphaned";
    moved.state = JobState::kSuspended;  // OrphanJob's expected entry state
    OrphanJob(moved);
    if (on_orphaned_) {
      on_orphaned_(id);
    }
  }
}

void Executor::OrphanJob(Job& job) {
  const bool was_running = job.state == JobState::kRunning;
  if (was_running) {
    // Close the segment normally: the GPU time burned since the last
    // checkpoint was really consumed and stays charged.
    CloseSegment(job, /*cancel_finish_event=*/true);
    // The process died with the node — that is a crash, on top of the
    // orphaning.
    job.num_crashes += 1;
  }
  job.completed_minibatches = job.checkpointed_minibatches;
  job.state = JobState::kQueued;
  job.server = ServerId::Invalid();
  job.num_orphanings += 1;
  acct_.CountOrphaned(common::ReduceToken{});
}

void Executor::FailServer(ServerId id) {
  cluster::Server& server = cluster_.server(id);
  GFAIR_CHECK_MSG(server.up(), "FailServer on a server that is already down");
  cluster_.SetServerUp(id, false);
  acct_.CountServerFailure(common::ReduceToken{});
  GFAIR_DLOG << "server " << id << " failed at " << FormatDuration(sim_.Now());

  // Evacuate executor state for every resident job BEFORE any scheduler
  // callback runs: the callbacks then observe a consistent world (server
  // down, victims queued). Jobs mid-migration keep flying — their checkpoint
  // is already in durable storage (see FinishMigration for inbound ones).
  // Pending pre-copy bulks out of this server keep flying too: the cutover
  // re-validates that the job is still at its source, which an orphaned
  // victim no longer is, so the stale transfer is abandoned there.
  std::vector<JobId> victims;
  for (Job* job : jobs_.All()) {
    if (job->server == id && (job->state == JobState::kRunning ||
                              job->state == JobState::kSuspended)) {
      OrphanJob(*job);
      victims.push_back(job->id);
    }
  }
  GFAIR_CHECK_MSG(server.num_busy() == 0, "down server still holds GPUs");

  if (on_server_down_) {
    on_server_down_(id);
  }
  for (JobId victim : victims) {
    if (on_orphaned_) {
      on_orphaned_(victim);
    }
  }
}

void Executor::RecoverServer(ServerId id) {
  GFAIR_CHECK_MSG(!cluster_.server(id).up(), "RecoverServer on an up server");
  cluster_.SetServerUp(id, true);
  acct_.CountServerRecovery(common::ReduceToken{});
  GFAIR_DLOG << "server " << id << " recovered at " << FormatDuration(sim_.Now());
  if (on_server_up_) {
    on_server_up_(id);
  }
}

double Executor::SampleObservedRate(JobId id) {
  GFAIR_CHECK_MSG(IsRunning(id), "SampleObservedRate requires a running job");
  const double noise = std::max(0.1, rng_.Normal(1.0, config_.rate_noise));
  return segments_[id.value()].rate * noise;
}

void Executor::SyncPoint() {
  const SimTime now = sim_.Now();
  // With nothing running there is nothing to credit or split; a repeat at
  // the same instant would only split chunks at zero length.
  if (running_list_.empty() || (!sync_points_.empty() && sync_points_.back() == now)) {
    return;
  }
  for (size_t u = 0; u < pool_holds_.size(); ++u) {
    for (size_t g = 0; g < cluster::kNumGenerations; ++g) {
      PoolHold& hold = pool_holds_[u][g];
      const int64_t accrued = hold.gpus * now - hold.gang_start_ms;
      GFAIR_DCHECK(accrued >= 0);
      if (accrued > 0 && on_gpu_credit_) {
        on_gpu_credit_(UserId(static_cast<uint32_t>(u)), cluster::kAllGenerations[g], now,
                       accrued);
      }
      hold.gang_start_ms = hold.gpus * now;
    }
  }
  sync_points_.push_back(now);
}

void Executor::SyncAll() {
  SyncPoint();
  // The sync point credited every open chunk, so folding adds no credit.
  for (size_t i = 0; i < running_list_.size(); ++i) {
    if (i + 1 < running_list_.size()) {
      jobs_.Prefetch(running_list_[i + 1]);
      PrefetchJobState(running_list_[i + 1]);
    }
    const JobId id = running_list_[i];
    FoldToNow(jobs_.Get(id), segments_[id.value()]);
  }
}

void Executor::SyncProgress(JobId id) {
  if (!IsRunning(id)) {
    return;
  }
  Job& job = jobs_.Get(id);
  RunSegment& seg = segments_[id.value()];
  const SimTime chunk_start = FoldToNow(job, seg);
  // The job's chunk now restarts here: credit it and re-open its hold.
  CloseHold(job.user, seg.gen, job.gang_size, chunk_start);
  OpenHold(job.user, seg.gen, job.gang_size, seg.start);
}

}  // namespace gfair::exec
