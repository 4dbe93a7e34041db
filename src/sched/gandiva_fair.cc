// GandivaFairScheduler facade: event-driven core (submit/finish/migration
// callbacks, quantum tick) plus the ISchedulerHost services. Placement and
// stealing live in PlacementEngine, balancing/drains in LoadBalancer, and
// profiling/trading in TradeCoordinator; all of them operate on the shared
// ClusterStateIndex and ResidencyIndex.
#include "sched/gandiva_fair.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"
#include "common/sorted.h"
#include "sched/cluster_state_view.h"
#include "sched/hierarchy.h"

namespace gfair::sched {

using cluster::GenerationIndex;
using cluster::GpuGeneration;
using workload::Job;
using workload::JobState;

namespace internal_gfair {
// Floor for stride tickets (a user whose pool entitlement was traded away
// still needs a positive ticket count; residency rebalancing then moves its
// jobs out of the pool).
constexpr Tickets kMinTickets = 1e-6;
}  // namespace internal_gfair

using internal_gfair::kMinTickets;

SimDuration RetryBackoff(SimDuration base, int attempt) {
  GFAIR_CHECK(attempt >= 1);
  constexpr SimDuration kMaxBackoff = kDay;
  if (base <= 0) {
    return 0;
  }
  if (base >= kMaxBackoff) {
    return kMaxBackoff;
  }
  const int shift = attempt - 1;
  // base < kMaxBackoff here, so the shift fits iff base <= kMaxBackoff >> shift
  // (and any shift past the cap's bit width saturates outright).
  if (shift >= 63 || base > (kMaxBackoff >> shift)) {
    return kMaxBackoff;
  }
  return base << shift;
}

GandivaFairScheduler::GandivaFairScheduler(const SchedulerEnv& env,
                                           GandivaFairConfig config)
    : env_(env),
      config_(config),
      trading_(config_.enable_trading && env_.cluster.heterogeneous()),
      index_(env_.cluster, config_.stride),
      residency_(env_.jobs),
      placement_(env_, config_, index_, residency_, *this),
      balancer_(env_, config_, index_, residency_, *this),
      trader_(env_, config_, index_, residency_, ticket_matrix_, decisions_, *this),
      tick_pool_(std::max(config_.plan_threads, config_.apply_threads) > 1
                     ? std::make_unique<common::ThreadPool>(
                           std::max(config_.plan_threads, config_.apply_threads))
                     : nullptr),
      checker_(env_, *this) {
  GFAIR_CHECK(config_.plan_shards >= 1);
  GFAIR_CHECK(config_.plan_threads >= 1);
  GFAIR_CHECK(config_.apply_threads >= 1);
  // Fixed contiguous ceil-division partition of the server ids: shard s
  // owns [s * span, (s + 1) * span); plan_shards = 1 is one shard spanning
  // every server. The partition depends only on (num_servers, plan_shards),
  // never on runtime state, which is half of the determinism argument (the
  // other half is the shard-order merge).
  const size_t num_servers = static_cast<size_t>(env_.cluster.num_servers());
  const size_t shards =
      std::min<size_t>(static_cast<size_t>(config_.plan_shards),
                       std::max<size_t>(num_servers, 1));
  const size_t span = (num_servers + shards - 1) / shards;
  const ClusterStateView view(env_.cluster, index_);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.emplace_back(QuantumPlanner(view),
                         PlanDiffer(env_.jobs, env_.exec, view),
                         std::min(s * span, num_servers),
                         std::min((s + 1) * span, num_servers));
  }
}

GpuGeneration GandivaFairScheduler::GenOf(ServerId server) const {
  return env_.cluster.server(server).generation();
}

void GandivaFairScheduler::Start() {
  if (env_.exec.config().precopy) {
    env_.exec.set_on_precopy_cutover(
        [this](JobId id, ServerId dest) { return OnPrecopyCutover(id, dest); });
  }
  env_.sim.Every(config_.quantum, [this]() { QuantumTick(); });
  if (config_.enable_load_balancing && env_.cluster.num_servers() > 1) {
    env_.sim.Every(config_.balance_period, [this]() { balancer_.Balance(); });
  }
  if (trading_) {
    env_.sim.Every(config_.trade_period, [this]() { trader_.TradeEpoch(); });
  }
}

void GandivaFairScheduler::Submit(JobId id) {
  Job& job = env_.jobs.Get(id);
  GFAIR_CHECK(job.state == JobState::kQueued);
  if (!ticket_matrix_.HasUser(job.user)) {
    ticket_matrix_.RegisterUser(job.user, env_.users.Get(job.user).tickets);
  }
  if (residency_.RegisterJob(id, job.user, job.gang_size)) {
    ApplyHierarchy();  // active set grew
  }

  const ServerId dest = placement_.ChoosePlacement(job);
  if (!dest.valid()) {
    // An outage can leave every server that fits this gang down; park the
    // job with the orphans and retry as servers recover. With all servers
    // up, an unplaceable gang is a configuration error, as before.
    GFAIR_CHECK_MSG(index_.AnyDown(), "no server can host this gang");
    GFAIR_WLOG << "submit: no up server for job " << id << "; parked";
    pending_orphans_.push_back(id);
    return;
  }
  decisions_.Record(env_.sim.Now(), DecisionType::kPlace, id, ServerId::Invalid(), dest);
  env_.exec.MakeResident(id, dest);
  AttachResident(id, dest);
  FillIdleGpus(dest);
}

void GandivaFairScheduler::OnJobFinished(JobId id) {
  const Job& job = env_.jobs.Get(id);
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  const ServerId server = info.home;
  info.precopying = false;  // any in-flight pre-copy bulk is now stale
  DetachAfterFinalCharge(id);

  if (residency_.DeregisterJob(id, job.user, job.gang_size)) {
    ApplyHierarchy();  // active set shrank
  }
  FillIdleGpus(server);
}

void GandivaFairScheduler::OnMigrationDone(JobId id) {
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  GFAIR_CHECK(info.migrating);
  info.migrating = false;
  RetryOf(id).attempts = 0;  // a landed transfer ends the retry sequence
  AttachResident(id, info.home);
  FillIdleGpus(info.home);
}

void GandivaFairScheduler::OnMigrationFailed(JobId id, ServerId dest) {
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  if (info.precopying) {
    // A pre-copy bulk lost its destination mid-flight. Cheap failure: the
    // job never stopped running at its source and is still attached there —
    // only the claim needs clearing before the retry ladder.
    GFAIR_CHECK(!info.migrating);
    info.precopying = false;
    ScheduleRetryOrGiveUp(id, dest);
    return;
  }
  GFAIR_CHECK(info.migrating);
  info.migrating = false;
  // The executor bounced the job back, suspended, to its source server
  // (which is still `job.server` — migration never updated it). Re-attach
  // there; the detach already happened at ExecuteMigration.
  const Job& job = env_.jobs.Get(id);
  GFAIR_CHECK(job.server.valid());
  AttachResident(id, job.server);
  FillIdleGpus(job.server);
  ScheduleRetryOrGiveUp(id, dest);
}

void GandivaFairScheduler::ScheduleRetryOrGiveUp(JobId id, ServerId dest) {
  RetryState& retry = RetryOf(id);
  retry.attempts += 1;
  if (retry.attempts > config_.migration_max_retries) {
    // Terminal fallback: the job stays at its source. Reset the counter so
    // a later, unrelated migration starts a fresh retry budget.
    GFAIR_WLOG << "migration of job " << id << " failed "
               << retry.attempts << " times; staying on server "
               << env_.jobs.Get(id).server;
    retry.attempts = 0;
    return;
  }
  const SimDuration backoff =
      RetryBackoff(config_.migration_retry_backoff, retry.attempts);
  const GpuGeneration gen = GenOf(dest);
  ++migration_retries_started_;
  env_.sim.After(backoff, [this, id, gen]() { RetryMigration(id, gen); });
}

void GandivaFairScheduler::RetryMigration(JobId id, GpuGeneration gen) {
  RetryState& retry = RetryOf(id);
  const Job& job = env_.jobs.Get(id);
  // The world may have moved on during the backoff: the job can have
  // finished, been orphaned (kQueued), or been sent migrating again by a
  // balance pass. In all those cases the retry sequence is over.
  if (job.state != JobState::kSuspended && job.state != JobState::kRunning) {
    retry.attempts = 0;
    return;
  }
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  GFAIR_CHECK(!info.migrating);
  if (info.precopying) {
    // A newer pre-copy claim (balance/trade picked the job again during the
    // backoff) supersedes this retry.
    retry.attempts = 0;
    return;
  }
  // Re-target: the original destination may still be down, so pick the
  // least-loaded up server of the same pool.
  const ServerId dest = index_.LeastLoadedServer(gen, job.gang_size, info.home);
  if (!dest.valid() || !env_.zoo.Get(job.model).FitsGeneration(gen)) {
    retry.attempts = 0;  // no viable destination; stay at the source
    return;
  }
  EmitMigration(id, dest, retry.cause);
}

void GandivaFairScheduler::OnJobOrphaned(JobId id) {
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  if (info.migrating) {
    // Orphaned at a failed landing with the source dead too: the job was
    // already detached at ExecuteMigration, so only the in-flight marker (and
    // any retry budget) needs clearing before re-placement.
    info.migrating = false;
  } else {
    // Resident victim of a server failure. Parallel to OnJobFinished:
    // account the final partial quantum, then detach from the dead server.
    DetachAfterFinalCharge(id);
  }
  info.precopying = false;  // any in-flight pre-copy bulk is now stale
  RetryOf(id).attempts = 0;  // orphaning voids any in-progress retry budget
  ReplaceOrphan(id);
}

void GandivaFairScheduler::ReplaceOrphan(JobId id) {
  const Job& job = env_.jobs.Get(id);
  GFAIR_CHECK(job.state == JobState::kQueued);
  const ServerId dest = placement_.ChoosePlacement(job);
  if (!dest.valid()) {
    GFAIR_WLOG << "orphan " << id << " has no up server; parked";
    pending_orphans_.push_back(id);
    return;
  }
  decisions_.Record(env_.sim.Now(), DecisionType::kPlace, id, ServerId::Invalid(), dest);
  env_.exec.MakeResident(id, dest);
  AttachResident(id, dest);
  ++orphans_replaced_;
  FillIdleGpus(dest);
}

void GandivaFairScheduler::RetryPendingOrphans() {
  if (pending_orphans_.empty()) {
    return;
  }
  std::vector<JobId> parked;
  parked.swap(pending_orphans_);  // ReplaceOrphan re-parks what still fails
  for (JobId id : parked) {
    ReplaceOrphan(id);
  }
}

void GandivaFairScheduler::OnServerDown(ServerId id) {
  index_.SetDown(id, true);
  GFAIR_ILOG << "server " << id << " down ("
             << env_.cluster.num_up_servers() << " up)";
}

void GandivaFairScheduler::OnServerUp(ServerId id) {
  index_.SetDown(id, false);
  GFAIR_ILOG << "server " << id << " back up ("
             << env_.cluster.num_up_servers() << " up)";
  RetryPendingOrphans();
}

GandivaFairScheduler::RetryState& GandivaFairScheduler::RetryOf(JobId id) {
  if (id.value() >= retry_.size()) {
    retry_.resize(id.value() + 1);
  }
  return retry_[id.value()];
}


void GandivaFairScheduler::QuantumTick() {
  // A sync point first, so ledger windows attribute GPU time to the quantum
  // it was actually consumed in (long uninterrupted runs would otherwise
  // credit hours of GPU time at their eventual close). It credits each
  // (user, pool) and touches no job: segments fold lazily (executor.h).
  env_.exec.SyncPoint();

  // Charge / plan-or-skip / commit / diff every up server, shard by shard:
  // on the tick pool when plan_threads > 1, inline otherwise (plan_shards =
  // 1 is one shard spanning every server). Charging is obligatory on every
  // up server, skipped or not: stride passes must account the elapsed
  // quantum. Every cell a shard touches — a stride's passes and sort
  // scratch, a job's info and charge clock, a server's plan-dirty byte —
  // belongs to exactly one shard's servers, so the shards commute; the
  // serial reduce then replays the deferred profiler draws and merges the
  // shard streams in ascending server order, making the tick bit-identical
  // for any shard or thread count.
  plan_.Clear();
  delta_.Clear();
  slice_begins_.clear();
  if (tick_pool_ && config_.plan_threads > 1) {
    tick_pool_->ParallelFor(shards_.size(), [this](size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) {
        // One ShardToken per shard, minted inside the fan-out: it unlocks
        // exactly the shard's own PlanShard state (phase_tokens.h).
        PlanShardRange(shards_[s], common::ShardToken{});
      }
    });
  } else {
    for (PlanShard& shard : shards_) {
      PlanShardRange(shard, common::ShardToken{});
    }
  }
  // The fan-out has joined — this thread is the tick's serial reduce and
  // may mint the ReduceToken unlocking cross-shard state.
  ReduceShards(common::ReduceToken{});
  ApplyMergedSlices();

  // A suspend that caught a job at its finish instant (its finish event,
  // queued behind this tick, would have come too late) left it with no work:
  // it finishes now, before stealing or anything else can resume or move it.
  env_.exec.FinishSuspendedAtFinish();

  // TrySteal takes only from oversubscribed servers and changes nothing
  // unless it steals, so with no donor anywhere the walk is skipped.
  if (config_.enable_work_stealing && index_.AnyOversubscribed()) {
    for (const auto& server : env_.cluster.servers()) {
      if (server.up() && server.num_free() > 0) {
        placement_.TrySteal(server.id());
      }
    }
  }
  RetryPendingOrphans();

#ifndef NDEBUG
  // Post-quantum invariant sweep (Debug/sanitizer builds): the cluster must
  // be in a consistent state at every quantum boundary, not just at the end
  // of a run. Release builds skip it — the sweep walks every server and job.
  for (const std::string& violation : checker_.Check()) {
    GFAIR_CHECK_MSG(false, violation.c_str());
  }
#endif
}

// gfair-shard-parallel-begin — ChargeServer and PlanShardRange run
// concurrently across shards. Only per-server / per-job state of the
// shard's own contiguous id range may be touched here; every cross-shard
// concern (RNG draws, the merged plan_/delta_, decisions, migrations)
// belongs to ReduceShards and later. gfair_lint's shard-locality rule
// enforces the denylist over this region.
void GandivaFairScheduler::ChargeServer(
    ServerId server, std::vector<PendingSample>* pending_samples,
    common::ShardToken) {
  LocalStrideScheduler& stride = index_.stride(server);
  const GpuGeneration gen = GenOf(server);
  const SimTime now = env_.sim.Now();
  const std::vector<JobId>& resident = stride.ResidentJobs();
  const std::vector<uint32_t>& positions = stride.ResidentPositions();
  // Per job, the walk reads the executor's running byte and the job's own
  // stride entry, which holds the instant it was last charged through; the
  // entries are contiguous, and the running bytes are one dense array.
  for (size_t i = 0; i < resident.size(); ++i) {
    const JobId id = resident[i];
    if (!env_.exec.IsRunning(id)) {
      continue;
    }
    stride.ChargeThrough(positions[i], now);
    // The profiler sample draws from the executor's single RNG stream, so
    // it is deferred: the reduce step replays the buffered jobs in
    // ascending server order, one draw per running job in charge order.
    // Everything but the rate is captured here, so the replay touches only
    // executor segment state per job. Only this reads the job's info, which
    // is scattered by id: hint the next job's line while this one is read.
    if (trading_) {
      if (i + 1 < resident.size()) {
        residency_.PrefetchInfo(resident[i + 1]);
      }
      const ResidencyIndex::JobInfo& info = residency_.Info(id);
      pending_samples->push_back(PendingSample{id, info.model, gen, info.gang_size});
    }
  }
}

void GandivaFairScheduler::PlanShardRange(PlanShard& shard,
                                          common::ShardToken token) {
  shard.BeginTick(token);
  const std::vector<cluster::Server>& servers = env_.cluster.servers();
  for (size_t s = shard.server_begin(); s < shard.server_end(); ++s) {
    const cluster::Server& server = servers[s];
    if (!server.up()) {
      continue;
    }
    const ServerId id = server.id();
    ChargeServer(id, &shard.pending_samples(token), token);
    LocalStrideScheduler& stride = index_.stride(id);
    if (shard.planner(token).PlanServerOrSkip(id, &shard.plan(token))) {
      const SchedulePlan::ServerTarget& target = shard.plan(token).servers.back();
      stride.AdvanceVirtualTime(target.min_runnable_pass);
      index_.ClearPlanDirty(id);
      shard.slice_begins(token).push_back(shard.delta(token).ops.size());
      shard.differ(token).DiffServer(shard.plan(token), target,
                                     &shard.delta(token));
    } else {
      stride.AdvanceVirtualTime(shard.plan(token).skipped_vt.back().second);
    }
  }
}
// gfair-shard-parallel-end

void GandivaFairScheduler::ReduceShards(common::ReduceToken token) {
  // Serial reduce: the only stage allowed to touch cross-shard state (its
  // ReduceToken unlocks the shard merge and the profiler feed). Shards
  // partition the ids in ascending contiguous ranges and are merged in
  // shard order, so every stream below — sample draws, plan entries, delta
  // ops, slice offsets — comes out in ascending server order, independent
  // of shard and thread count.
  for (PlanShard& shard : shards_) {
    // Profiler samples: one RNG draw per running job, in charge order. The
    // jobs' segment state is scattered by id, so pipeline the next lookup
    // behind the current draw (as the charge walk does).
    const std::vector<PendingSample>& samples = shard.pending_samples(token);
    for (size_t i = 0; i < samples.size(); ++i) {
      if (i + 1 < samples.size()) {
        env_.exec.PrefetchJobState(samples[i + 1].job);
      }
      const PendingSample& sample = samples[i];
      trader_.RecordSample(
          sample.model, sample.gen,
          PerGpuRate::FromGangRate(env_.exec.SampleObservedRate(sample.job),
                                   sample.gang_size),
          token);
    }
    shard.MergeInto(&plan_, &delta_, &slice_begins_, token);
  }
}

void GandivaFairScheduler::ApplyMergedSlices() {
  // slice_scratch_ materializes the ApplySlice pointers only now — delta_.ops
  // can no longer reallocate. One prepare/commit apply for the whole tick;
  // the prepare pass fans out only when apply_threads > 1.
  slice_scratch_.clear();
  for (size_t s = 0; s < slice_begins_.size(); ++s) {
    const size_t begin = slice_begins_[s];
    const size_t end =
        s + 1 < slice_begins_.size() ? slice_begins_[s + 1] : delta_.ops.size();
    if (begin < end) {
      slice_scratch_.push_back(
          exec::Executor::ApplySlice{delta_.ops.data() + begin, end - begin});
    }
  }
  if (slice_scratch_.empty()) {
    return;
  }
  env_.exec.ApplyDeltaParallel(
      slice_scratch_.data(), slice_scratch_.size(),
      config_.apply_threads > 1 ? tick_pool_.get() : nullptr);
  RecordAppliedOps();
}

void GandivaFairScheduler::RecordAppliedOps() {
  const SimTime now = env_.sim.Now();
  for (const exec::ScheduleOp& op : delta_.ops) {
    if (op.resume) {
      decisions_.Record(now, DecisionType::kResume, op.job, ServerId::Invalid(),
                        op.server);
      index_.stride(op.server).SetChargedThrough(op.job, now);
    } else {
      decisions_.Record(now, DecisionType::kSuspend, op.job, op.server);
    }
  }
}

void GandivaFairScheduler::FillIdleGpus(ServerId server) {
  cluster::Server& host = env_.cluster.server(server);
  if (!host.up() || host.num_free() == 0) {
    return;
  }
  // Work conservation between quantum ticks: start the best waiting jobs
  // that fit the currently idle GPUs, without preempting anyone. Unlike the
  // quantum boundary, GPUs here free up incrementally, so with
  // reserve_blocked_gang we stop at the first waiting gang that does not fit:
  // its GPUs accumulate instead of being nibbled away by jobs behind it.
  LocalStrideScheduler& stride = index_.stride(server);
  const SimTime now = env_.sim.Now();
  for (JobId id : stride.SelectForQuantum()) {
    if (env_.exec.IsRunning(id)) {
      continue;
    }
    const Job& job = env_.jobs.Get(id);
    if (host.CanFit(job.gang_size)) {
      env_.exec.Resume(id);
      decisions_.Record(now, DecisionType::kResume, id, ServerId::Invalid(), server);
      stride.SetChargedThrough(id, now);
    } else if (config_.stride.reserve_blocked_gang) {
      break;
    }
  }
  if (host.num_free() > 0 && config_.enable_work_stealing) {
    placement_.TrySteal(server);
  }
}

void GandivaFairScheduler::AttachResident(JobId id, ServerId server) {
  Job& job = env_.jobs.Get(id);
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  info.home = server;
  const GpuGeneration gen = GenOf(server);
  residency_.Attach(job.user, gen, id, server);
  // The new entry picks up the charge clock where the last residency left
  // it. A job that lands here suspended and is orphaned before it resumes
  // is final-charged from that instant (DetachAfterFinalCharge).
  index_.AddJob(server, id, job.gang_size, ResidencyIndex::ShareOf(job),
                &residency_.PoolRate(job.user, gen), info.last_charge);
  RefreshPoolTickets(job.user, gen);
  // The published demand sums every resident share of the pool, this one
  // included, so no resident reads a demand below its own share (the load
  // bounds are tight under it; DESIGN.md).
  GFAIR_CHECK_MSG(residency_.PoolRate(job.user, gen).pool_demand >= ResidencyIndex::ShareOf(job),
                  "published pool demand below a resident's share");
  ledger_.RecordDemandChange(job.user, gen, env_.sim.Now(), job.gang_size);
}

void GandivaFairScheduler::DetachAfterFinalCharge(JobId id) {
  const ResidencyIndex::JobInfo& info = residency_.Info(id);
  GFAIR_CHECK(info.home.valid());
  // Account the final partial quantum to the stride pass before removal.
  // The charged-through instant stays put: DetachResident carries it.
  LocalStrideScheduler& stride = index_.stride(info.home);
  if (stride.Contains(id)) {
    stride.Charge(id, env_.sim.Now() - stride.ChargedThrough(id));
  }
  DetachResident(id);
}

void GandivaFairScheduler::DetachResident(JobId id) {
  Job& job = env_.jobs.Get(id);
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  GFAIR_CHECK(info.home.valid());
  const GpuGeneration gen = GenOf(info.home);
  // The entry's charge clock outlives the residency: the next attach seeds
  // from it.
  info.last_charge = index_.stride(info.home).ChargedThrough(id);
  residency_.Detach(job.user, gen, id, info.home);
  index_.RemoveJob(info.home, id);
  RefreshPoolTickets(job.user, gen);
  ledger_.RecordDemandChange(job.user, gen, env_.sim.Now(), -job.gang_size);
}

void GandivaFairScheduler::EmitMigration(JobId id, ServerId dest,
                                         MigrationCause cause) {
  if (env_.exec.FinishDue(id)) {
    // Its finish event fires later in this very millisecond: suspending it
    // to move it would strand a job with no work left. It stays to finish.
    return;
  }
  // Every placement-changing intent funnels through the SchedulePlan before
  // reaching the executor (one record of what was decided this quantum), but
  // is executed eagerly: balancing/trading rounds later in the same pass
  // must read the post-migration residency.
  plan_.migrations.push_back(MigrationDirective{id, dest, cause});
  ExecuteMigration(id, dest, cause);
}

void GandivaFairScheduler::ExecuteMigration(JobId id, ServerId dest,
                                            MigrationCause cause) {
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  GFAIR_CHECK(!info.migrating);
  GFAIR_CHECK(!info.precopying);  // candidate walks skip claimed jobs
  GFAIR_CHECK(dest.valid() && dest != info.home);
  const ServerId source = info.home;
  decisions_.Record(env_.sim.Now(), DecisionFor(cause), id, source, dest);
  RetryOf(id).cause = cause;  // a failed landing retries under the same cause
  ++migrations_started_;

  if (env_.exec.config().precopy) {
    // Pre-copy: the bulk checkpoint ships while the job keeps running (or
    // sits schedulable) at the source; residency is untouched until the
    // cutover callback runs the stop-and-copy tail.
    info.precopying = true;
    env_.exec.StartPreCopy(id, dest);
    GFAIR_DLOG << "pre-copying job " << id << " from server " << source
               << " to " << dest;
    return;
  }
  StopAndCopy(id, dest, /*precopied=*/false);
}

void GandivaFairScheduler::StopAndCopy(JobId id, ServerId dest, bool precopied) {
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  const ServerId source = info.home;
  if (env_.exec.IsRunning(id)) {
    LocalStrideScheduler& stride = index_.stride(source);
    stride.Charge(id, env_.sim.Now() - stride.ChargedThrough(id));
    env_.exec.Suspend(id);
  }
  DetachResident(id);
  info.migrating = true;
  info.last_migration = env_.sim.Now();
  info.home = dest;  // AttachResident uses this when the transfer lands
  if (precopied) {
    env_.exec.MigrateTail(id, dest);
    GFAIR_DLOG << "pre-copy cutover: job " << id << " from server " << source
               << " to " << dest;
  } else {
    env_.exec.Migrate(id, dest);
    GFAIR_DLOG << "migrating job " << id << " from server " << source << " to " << dest;
  }
  FillIdleGpus(source);
}

bool GandivaFairScheduler::OnPrecopyCutover(JobId id, ServerId dest) {
  ResidencyIndex::JobInfo& info = residency_.Info(id);
  if (!info.precopying) {
    // The claim was dropped (the job was orphaned or finished and possibly
    // re-placed back onto the same server) — the shipped bulk is stale.
    return false;
  }
  GFAIR_CHECK(!info.migrating);
  info.precopying = false;
  if (index_.draining(dest) || index_.down(dest)) {
    return false;  // destination became ineligible scheduler-side
  }
  if (env_.exec.FinishDue(id)) {
    return false;  // the job finishes at this instant (see EmitMigration)
  }
  StopAndCopy(id, dest, /*precopied=*/true);
  return true;
}

TicketRate GandivaFairScheduler::CurrentRate(UserId user, GpuGeneration gen) const {
  // A user's pool tickets are split across its resident jobs proportional to
  // weight x gang size (equal weighted GPU-time per demanded GPU). An equal
  // per-job split would let the user's 1-GPU jobs run continuously while its
  // 8-GPU gang — one job, one share — starved at an eighth of its demand.
  return TicketRate{std::max(ticket_matrix_.Get(user, gen), kMinTickets),
                    residency_.WeightedResidentDemand(user, gen)};
}

Tickets GandivaFairScheduler::PerJobTickets(UserId user, GpuGeneration gen,
                                            const Job& job) const {
  return CurrentRate(user, gen).TicketsFor(ResidencyIndex::ShareOf(job));
}

void GandivaFairScheduler::RefreshPoolTickets(UserId user, GpuGeneration gen) {
  const std::vector<ResidencyIndex::Host>& hosts = residency_.PoolHosts(user, gen);
  if (hosts.empty()) {
    return;  // the pool holds none of the user's jobs
  }
  // Publish the pool's rate once: every resident entry of the pool derives
  // its tickets from it on read. What goes stale is each hosting server's
  // cached ticket load — not its plan (tickets are not part of the
  // selection key or the planner's skip condition). Each hosting server is
  // re-priced once, however many of the pool's jobs it holds: its load
  // bounds shift by its share sum times the change in tickets per share,
  // measured from the rate its entries actually read until now (a pool that
  // emptied skipped its publish, so that rate may predate the demand).
  TicketRate& published = residency_.PoolRate(user, gen);
  const TicketRate before = published;
  published = CurrentRate(user, gen);
  const RateChange change(before, published);
  for (const ResidencyIndex::Host& host : hosts) {
    index_.RepriceTicketLoad(host.server, host.shares, change);
  }
}

void GandivaFairScheduler::RefreshAllTickets() {
  for (UserId user : residency_.active_users()) {
    for (GpuGeneration gen : cluster::kAllGenerations) {
      RefreshPoolTickets(user, gen);
    }
  }
}

ClusterSnapshot GandivaFairScheduler::Snapshot() const {
  ClusterSnapshot snapshot;
  snapshot.time = env_.sim.Now();
  for (const auto& server : env_.cluster.servers()) {
    ServerSnapshot view;
    view.id = server.id();
    view.generation = server.generation();
    view.num_gpus = server.num_gpus();
    view.busy_gpus = server.num_busy();
    const auto& stride = index_.stride(server.id());
    view.resident_jobs = static_cast<int>(stride.num_jobs());
    view.demand_load = stride.DemandLoad() / static_cast<double>(server.num_gpus());
    // Snapshot rows are display values; unwrap at the serialization boundary.
    view.ticket_load = (stride.TicketLoad() / static_cast<double>(server.num_gpus())).raw();  // gfair-lint: allow(unit-unwrap-outside-boundary)
    view.draining = index_.draining(server.id());
    view.down = index_.down(server.id());
    snapshot.servers.push_back(view);
  }
  for (const auto& user : env_.users.users()) {
    UserSnapshot view;
    view.id = user.id;
    view.name = user.name;
    view.unfinished_jobs = residency_.UnfinishedJobs(user.id);
    for (GpuGeneration gen : cluster::kAllGenerations) {
      const size_t g = GenerationIndex(gen);
      view.entitlement_gpus[g] =
          ticket_matrix_.HasUser(user.id) ? EntitlementGpus(user.id, gen) : 0.0;
      view.resident_demand[g] = ResidentDemand(user.id, gen);
    }
    snapshot.users.push_back(view);
  }
  return snapshot;
}

void GandivaFairScheduler::DrainServer(ServerId server) {
  if (index_.draining(server)) {
    return;
  }
  index_.SetDraining(server, true);
  GFAIR_ILOG << "draining server " << server;
  balancer_.DrainBatch();
}

void GandivaFairScheduler::UndrainServer(ServerId server) {
  index_.SetDraining(server, false);
}

void GandivaFairScheduler::ApplyHierarchy() {
  if (!config_.enable_hierarchical_sharing) {
    return;
  }
  bool any_grouped = false;
  for (const auto& user : env_.users.users()) {
    if (!user.group.empty()) {
      any_grouped = true;
      break;
    }
  }
  if (!any_grouped) {
    return;
  }
  const std::vector<UserId> active = residency_.ActiveUsers();
  if (active.empty()) {
    return;
  }
  // Sorted for determinism (the result is an unordered_map); RegisterUser on
  // distinct users commutes, but a fixed order keeps row insertion identical
  // across platforms.
  for (const auto& [user, tickets] :
       common::SortedItems(ComputeHierarchicalTickets(env_.users, active))) {
    // Resets the user's pool row to the new base; the next trading epoch
    // rebuilds trades on top (activity changes invalidate them anyway).
    ticket_matrix_.RegisterUser(user, tickets);
  }
  RefreshAllTickets();
}

double GandivaFairScheduler::EntitlementGpus(UserId user, GpuGeneration gen) const {
  // Entitlements divide SURVIVING capacity: a down server's GPUs cannot be
  // promised to anyone (identical to total_gpus when nothing is down).
  const int pool = env_.cluster.up_gpus(gen);
  if (pool == 0) {
    return 0.0;
  }
  const std::set<UserId>& active = residency_.active_users();
  if (active.empty()) {
    return static_cast<double>(pool);
  }
  Tickets total = 0.0;
  Tickets mine = 0.0;
  for (UserId v : active) {
    const Tickets tickets = ticket_matrix_.Get(v, gen);
    total += tickets;
    if (v == user) {
      mine = tickets;
    }
  }
  if (total <= 0.0) {
    return static_cast<double>(pool) / static_cast<double>(active.size());
  }
  // Share ratio (Tickets / Tickets) scales the pool's physical GPU count.
  return mine / total * static_cast<double>(pool);
}

}  // namespace gfair::sched
