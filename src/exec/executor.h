// Executor — simulated DLT job runtime.
//
// Stands in for the Gandiva-style per-server runtime the paper relies on:
// suspend/resume of framework processes and checkpoint-based migration
// between servers. The scheduler calls the four verbs below (MakeResident,
// Resume, Suspend, Migrate); the executor charges simulated time, tracks job
// progress at the model's per-generation throughput, fires completion
// callbacks, and accounts GPU time to users.
//
// Accounting (DESIGN.md, "Quantum pipeline"): GPU time is credited
// per (user, pool) at sync points, not per job. A sync point is an instant
// at which every pool's accrued GPU-ms is credited through the credit
// callback and after which each open run segment's next progress chunk
// starts. The quantum tick only records its instant (SyncPoint, O(users x
// pools)); each segment folds its progress lazily — at its close or when a
// reader calls SyncProgress/SyncAll — chunk by chunk at the recorded
// instants, so job progress, finish times and ledger totals are bit for bit
// those of flushing every segment at every sync point.
//
// Cost model (documented in DESIGN.md):
//  * Resume: the first `resume_latency(model)` of a run segment produces no
//    progress (process restore + GPU warm-up) but occupies the gang — so each
//    suspend/resume cycle costs real GPU time, which is why the scheduling
//    quantum must be much larger than the latency.
//  * Suspend: the checkpoint happens asynchronously to the releasing GPUs
//    (device state is small relative to host state); modeled as instantaneous
//    release plus `suspend_latency(model)` charged to the job's overhead.
//  * Migration: suspend + checkpoint transfer at `migrate_bw_gbps` + resume,
//    during which the job is unavailable for scheduling. A transfer can fail
//    at landing (flaky network, destination died mid-flight); the job then
//    falls back, suspended, to its source server — retry policy is the
//    scheduler's business, not the executor's.
//
// Failure model (documented in DESIGN.md): FailServer models whole-node
// loss. Checkpoints live in durable (remote) storage, so a dead server costs
// each resident job only the progress since its last checkpoint; the jobs
// become orphans (kQueued, no server) and the scheduler is told through the
// orphan/server-down callbacks so it can re-place them.
#ifndef GFAIR_EXEC_EXECUTOR_H_
#define GFAIR_EXEC_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "common/phase_tokens.h"
#include "common/rng.h"
#include "exec/schedule_op.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "simkit/simulator.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

namespace gfair::common {
class ThreadPool;
}

namespace gfair::exec {

struct ExecutorConfig {
  // Suspend/resume latency = base + checkpoint_gb * per_gb (seconds).
  double suspend_base_s = 0.5;
  double suspend_per_gb_s = 0.2;
  double resume_base_s = 1.0;
  double resume_per_gb_s = 0.3;
  // Checkpoint network transfer bandwidth for migration.
  double migrate_bw_gbps = 1.0;
  // Migration network contention: a transfer starting while K others are in
  // flight takes (1 + K * migrate_contention) times as long — a snapshot
  // approximation of bandwidth sharing (exact processor sharing would
  // require re-timing in-flight transfers). 0 disables.
  double migrate_contention = 0.5;
  // Multiplicative noise (stddev, fraction of true rate) on observed
  // throughput samples — what the online profiler has to cope with.
  double rate_noise = 0.05;
  // Probability that a checkpoint transfer fails at landing (the job bounces
  // back to its source server, suspended). Drawn from a dedicated fault RNG
  // so enabling failures does not perturb the profiler noise stream. 0
  // disables — and skips the draw entirely, keeping failure-free runs
  // bit-identical to builds without the fault plane.
  double migrate_failure_prob = 0.0;
  // --- checkpoint compression (see DESIGN.md, "Migration cost model") ---
  // Checkpoints are compressed before hitting the migration network: the
  // transfer moves checkpoint_gb / compress_ratio GB, and compressing costs
  // compress_seconds_per_gb * checkpoint_gb of CPU time added to the
  // transfer phase (the trade: CPU seconds for network bytes). The defaults
  // model compression off and keep migration timing bit-identical to the
  // pre-compression executor.
  double compress_ratio = 1.0;
  double compress_seconds_per_gb = 0.0;
  // --- pre-copy migration (live-migration style) ---
  // When true, a migration of a resident job ships the bulk of the
  // checkpoint while the job keeps executing at its source; only the
  // stop-and-copy tail — suspend, re-send of the pages dirtied during the
  // bulk transfer, resume — makes the job unavailable. The scheduler drives
  // this through StartPreCopy + the cutover callback; plain Migrate remains
  // the full stop-and-copy path (and the only path for orphan re-placement,
  // where there is no live source to pre-copy from).
  bool precopy = false;
  // Fraction of the (compressed) checkpoint re-sent in the stop-and-copy
  // tail: the write working set dirtied while the bulk transfer ran.
  double precopy_dirty_fraction = 0.1;
  // --- warm-up overlap (Tally-style GPU sharing at quantum edges) ---
  // When true, a job resumed by an ApplyDelta slice warms up while the jobs
  // suspended earlier in the same slice drain their last mini-batch: its
  // no-progress warm-up prefix shrinks by up to the largest suspend latency
  // among those departures, hiding the quantum-boundary bubble. Off keeps
  // resume timing bit-identical to the non-overlapped executor.
  bool overlap_warmup = false;
};

// Global migration / fault accounting: lifetime counters plus the
// byte/bubble accumulators the E10/E14 benches report. These are exactly
// the cross-slice cells ApplyDeltaParallel's prepare fan-out must NOT touch
// (a `+=` from two slices is a lost-update race, and a double accumulation
// order change breaks bit-identity), so every mutator requires a
// common::ReduceToken — mintable only by the Executor (and the scheduler
// facade) at points that are serial by construction: event handlers,
// migration landings, and the serial commit pass of the parallel apply.
// Parallel code reaching for an accumulator is a compile error (pinned by a
// WILL_FAIL negative-compile ctest); reads are unrestricted.
class MigrationAccounting {
 public:
  // --- mutators (serial phase only; see common/phase_tokens.h) ---
  void AddTransfer(double wire_gb, common::ReduceToken) { bytes_gb_ += wire_gb; }
  void AddBubble(SimDuration latency, common::ReduceToken) {
    bubble_ms_ += latency;
  }
  void AddWarmupBubble(SimDuration warmup, common::ReduceToken) {
    warmup_bubble_ms_ += warmup;
  }
  void AddOverlapSaved(SimDuration hidden, common::ReduceToken) {
    overlap_saved_ms_ += hidden;
  }
  void CountServerFailure(common::ReduceToken) { server_failures_ += 1; }
  void CountServerRecovery(common::ReduceToken) { server_recoveries_ += 1; }
  void CountFailureDestDown(common::ReduceToken) { failures_dest_down_ += 1; }
  void CountFailureFlake(common::ReduceToken) { failures_flake_ += 1; }
  void CountOrphaned(common::ReduceToken) { jobs_orphaned_ += 1; }
  void CountPrecopyStarted(common::ReduceToken) { precopies_started_ += 1; }
  void CountPrecopyAborted(common::ReduceToken) { precopies_aborted_ += 1; }

  // --- getters (any phase) ---
  double bytes_gb() const { return bytes_gb_; }
  SimDuration bubble_ms() const { return bubble_ms_; }
  SimDuration warmup_bubble_ms() const { return warmup_bubble_ms_; }
  SimDuration overlap_saved_ms() const { return overlap_saved_ms_; }
  int64_t server_failures() const { return server_failures_; }
  int64_t server_recoveries() const { return server_recoveries_; }
  int64_t failures_dest_down() const { return failures_dest_down_; }
  int64_t failures_flake() const { return failures_flake_; }
  int64_t jobs_orphaned() const { return jobs_orphaned_; }
  int64_t precopies_started() const { return precopies_started_; }
  int64_t precopies_aborted() const { return precopies_aborted_; }

 private:
  int64_t server_failures_ = 0;
  int64_t server_recoveries_ = 0;
  int64_t failures_dest_down_ = 0;
  int64_t failures_flake_ = 0;
  int64_t jobs_orphaned_ = 0;
  int64_t precopies_started_ = 0;
  int64_t precopies_aborted_ = 0;
  double bytes_gb_ = 0.0;
  SimDuration bubble_ms_ = 0;
  SimDuration warmup_bubble_ms_ = 0;
  SimDuration overlap_saved_ms_ = 0;
};

class Executor {
 public:
  // Fired when a running job completes its work. The job's GPUs are already
  // released when this runs.
  using JobFinishedCallback = std::function<void(JobId)>;
  // Fired when a migration lands; the job is suspended on its new server.
  using MigrationDoneCallback = std::function<void(JobId)>;
  // Fired when a checkpoint transfer fails; the job is back, suspended, on
  // its source server. `dest` is the destination that was not reached.
  using MigrationFailedCallback = std::function<void(JobId, ServerId dest)>;
  // Fired when a job loses its server (node failure): progress is rolled
  // back to the last checkpoint and the job is kQueued with no server.
  using JobOrphanedCallback = std::function<void(JobId)>;
  // Server availability transitions (FailServer/RecoverServer).
  using ServerEventCallback = std::function<void(ServerId)>;
  // GPU-time credit hook: `user` consumed `gpu_ms` GPU-milliseconds (an
  // exact integer count) on pool `pool` since its previous credit, booked at
  // instant `at`. Fired per pool at each sync point and per segment when it
  // closes or a reader folds it; never with gpu_ms == 0.
  using CreditCallback = std::function<void(UserId user, cluster::GpuGeneration pool,
                                            SimTime at, int64_t gpu_ms)>;
  // Fired when a pre-copy bulk transfer completes and the job is still a
  // valid candidate on the executor side (alive, still at its source). The
  // scheduler returns true to proceed — it must suspend/detach the job and
  // call MigrateTail(job, dest) — or false to abort the migration (e.g. it
  // already dropped its own pre-copy claim on the job).
  using PrecopyCutoverCallback = std::function<bool(JobId, ServerId dest)>;

  Executor(simkit::Simulator& sim, cluster::Cluster& cluster,
           const workload::ModelZoo& zoo, workload::JobTable& jobs,
           ExecutorConfig config, uint64_t seed);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void set_on_job_finished(JobFinishedCallback cb) { on_finished_ = std::move(cb); }
  void set_on_migration_done(MigrationDoneCallback cb) { on_migrated_ = std::move(cb); }
  void set_on_migration_failed(MigrationFailedCallback cb) {
    on_migration_failed_ = std::move(cb);
  }
  void set_on_job_orphaned(JobOrphanedCallback cb) { on_orphaned_ = std::move(cb); }
  void set_on_server_down(ServerEventCallback cb) { on_server_down_ = std::move(cb); }
  void set_on_server_up(ServerEventCallback cb) { on_server_up_ = std::move(cb); }
  void set_on_gpu_credit(CreditCallback cb) { on_gpu_credit_ = std::move(cb); }
  void set_on_precopy_cutover(PrecopyCutoverCallback cb) {
    on_precopy_cutover_ = std::move(cb);
  }

  // queued -> suspended: the job becomes resident on `server` (no cost; the
  // container/image is assumed pre-staged, as in the paper's clusters).
  void MakeResident(JobId id, ServerId server);

  // suspended -> running: allocates the gang and starts progress after the
  // resume latency. Precondition: the server has gang_size free GPUs.
  void Resume(JobId id);

  // running -> suspended: stops progress, releases the gang immediately and
  // charges suspend latency to the job's overhead account. A job suspended
  // at its finish instant (before its finish event fired) has done all its
  // work: it is left with none remaining and queued for
  // FinishSuspendedAtFinish instead of waiting for a resume it cannot take.
  void Suspend(JobId id);

  // Finishes every job a Suspend caught at its finish instant since the last
  // call: each becomes kFinished now, at that instant, and fires the
  // finished callback. The scheduler calls this where re-entry is safe —
  // after a quantum's apply, before anything may resume or move the job.
  void FinishSuspendedAtFinish();

  // Whether the running job's finish event is due at this instant (it fires
  // later in the same millisecond). Moving such a job would strand a job
  // with no work left; callers leave it to finish.
  bool FinishDue(JobId id) const {
    return IsRunning(id) && segments_[id.value()].finish_at <= sim_.Now();
  }

  // Applies a batched schedule change: each op is a Suspend (resume=false)
  // or Resume (resume=true), executed strictly in list order — the producer
  // (sched::PlanDiffer) orders suspends before the resumes that need their
  // GPUs. The scheduler's tick applies through ApplyDeltaParallel; this
  // single-verb form is the reference it must match slice by slice.
  void ApplyDelta(const ScheduleOp* ops, size_t count);
  void ApplyDelta(const std::vector<ScheduleOp>& ops) {
    ApplyDelta(ops.data(), ops.size());
  }

  // One per-server run of consecutive ops inside a ScheduleDelta.
  struct ApplySlice {
    const ScheduleOp* ops;
    size_t count;
  };

  // Applies many per-server slices in two passes: a prepare pass doing the
  // per-job/per-server work, fanned out across `pool` (inline on the caller
  // when `pool` is null), then a serial commit pass in slice order. Slices
  // must target pairwise-distinct servers (disjoint jobs and GPUs by
  // construction); under that precondition the result — state, decision
  // order, event ids, credit stream — is bit-identical to calling
  // ApplyDelta on each slice in order, because everything order-sensitive
  // (running-list maintenance, finish-timer arms, pool holds and credits)
  // is replayed serially in op order by the commit pass. Suspend/resume
  // draw no RNG, so the fan-out cannot perturb streams.
  void ApplyDeltaParallel(const ApplySlice* slices, size_t num_slices,
                          common::ThreadPool* pool);

  // suspended -> migrating -> suspended on `dest` after the migration
  // latency. The migration-done callback then fires.
  void Migrate(JobId id, ServerId dest);

  // Starts a pre-copy migration: the (compressed) checkpoint bulk-transfers
  // while the job keeps running (or sits suspended) at its source; the job
  // stays schedulable there throughout. When the bulk lands, the cutover
  // callback asks the scheduler to suspend/detach the job and call
  // MigrateTail — or the transfer is abandoned if the job finished, moved,
  // was orphaned, or the destination died mid-flight (a cheap failure: the
  // job never stopped running). Precondition: job running or suspended on an
  // up server, destination up and fitting, config().precopy enabled.
  void StartPreCopy(JobId id, ServerId dest);

  // The stop-and-copy tail of a pre-copy migration: like Migrate but the
  // transfer re-sends only precopy_dirty_fraction of the compressed
  // checkpoint. Call from the cutover callback after suspending the job.
  void MigrateTail(JobId id, ServerId dest);

  // Failure injection: the job's process dies (OOM, spot preemption, node
  // fault). Progress rolls back to the last checkpoint — checkpoints are
  // taken on every suspend/migration, so the exposure is the current run
  // segment. A running job releases its GPUs (the GPU time burned since the
  // checkpoint is still charged — that's the cost of the crash) and becomes
  // suspended on its server, ready to restart from the checkpoint. No-op
  // state change for already-suspended jobs. Precondition: not finished, not
  // migrating.
  void InjectCrash(JobId id);

  // Whole-node failure: marks the server down (placement must stop targeting
  // it), then evacuates every resident job — running segments are closed
  // (their burned GPU time stays charged), progress rolls back to the last
  // checkpoint, and the victims become orphans (kQueued, no server). Fires
  // the server-down callback first, then one orphan callback per victim, so
  // a scheduler re-places orphans against a world that already excludes the
  // dead server. Jobs mid-migration are NOT orphaned here: the checkpoint is
  // already in durable storage, so an outbound transfer still lands at its
  // destination, and an inbound transfer fails at landing (see Migrate).
  // Precondition: the server is up.
  void FailServer(ServerId id);

  // Brings a failed server back, empty; fires the server-up callback.
  // Precondition: the server is down.
  void RecoverServer(ServerId id);

  // One byte read: the flag lives apart from the run segment, so a walk that
  // only asks "running?" (the quantum's charge, the differ, balancing,
  // stealing) touches one dense byte per job instead of a segment line.
  bool IsRunning(JobId id) const {
    return id.value() < running_.size() && running_[id.value()] != 0;
  }

  // Cache hint for an upcoming segment read on `id` (SampleObservedRate, a
  // fold or a close) in a walk over scattered job ids. No effect on
  // behavior.
  void PrefetchJobState(JobId id) const {
    if (id.value() < segments_.size()) {
      __builtin_prefetch(&segments_[id.value()]);
    }
  }

  // Ground-truth gang throughput (mini-batches/s) of the job on `gen`.
  double TrueRate(JobId id, cluster::GpuGeneration gen) const;

  // Noisy observation of the job's current throughput. Precondition: running.
  // This is what the profiler sees (mini-batch timing jitter).
  double SampleObservedRate(JobId id);

  // Records a sync point at the current instant: credits every pool's GPU
  // time accrued since the previous credit and starts each open segment's
  // next progress chunk here. O(users x pools); touches no job. The quantum
  // tick calls this so ledger windows attribute GPU time to the quantum it
  // was consumed in.
  void SyncPoint();

  // Folds a running job's progress up to now into completed_minibatches and
  // gpu_ms_by_gen (e.g. before reading job stats mid-segment), crediting its
  // GPU time since the last sync point. No-op for non-running jobs.
  void SyncProgress(JobId id);

  // A sync point plus SyncProgress for every running job. Call before
  // reading jobs mid-run — open run segments are otherwise folded only at
  // their close.
  void SyncAll();

  // Per-model operation latencies (exposed for benches/tests).
  // MigrateLatency is the uncontended figure; the actual charge grows with
  // the number of migrations already in flight (see migrate_contention).
  SimDuration SuspendLatency(workload::ModelId model) const;
  SimDuration ResumeLatency(workload::ModelId model) const;
  SimDuration MigrateLatency(workload::ModelId model) const;

  int migrations_in_flight() const { return migrations_in_flight_; }

  // Lifetime fault counters (benches and tests).
  int64_t server_failures() const { return acct_.server_failures(); }
  int64_t server_recoveries() const { return acct_.server_recoveries(); }
  // Failed landings, split by cause: the destination died while the
  // checkpoint was in flight vs the transfer itself flaked. The total is
  // their sum (kept as a getter so E10/E14 attribution can't drift).
  int64_t migration_failures() const {
    return acct_.failures_dest_down() + acct_.failures_flake();
  }
  int64_t migration_failures_dest_down() const { return acct_.failures_dest_down(); }
  int64_t migration_failures_flake() const { return acct_.failures_flake(); }
  int64_t jobs_orphaned() const { return acct_.jobs_orphaned(); }

  // Pre-copy lifecycle counters.
  int64_t precopies_started() const { return acct_.precopies_started(); }
  int64_t precopies_aborted() const { return acct_.precopies_aborted(); }

  // Migration byte/bubble accounting (benches report these, not just
  // counts). Bytes are post-compression GB put on the migration network
  // (bulk + tail for pre-copies). Bubble is the time jobs were unavailable
  // to the scheduler due to migration (the full latency for stop-and-copy,
  // only the tail for pre-copies). Warm-up bubble is the total no-progress
  // warm-up prefix charged at resumes; overlap_saved is the portion of it
  // hidden by overlap_warmup.
  double migration_bytes_gb() const { return acct_.bytes_gb(); }
  SimDuration migration_bubble_ms() const { return acct_.bubble_ms(); }
  SimDuration warmup_bubble_ms() const { return acct_.warmup_bubble_ms(); }
  SimDuration overlap_saved_ms() const { return acct_.overlap_saved_ms(); }

  // The full accounting block (token-gated mutators live on the class
  // itself; see MigrationAccounting above).
  const MigrationAccounting& accounting() const { return acct_; }

  const ExecutorConfig& config() const { return config_; }

 private:
  // State of one gang's latest run segment. Slots live in a dense vector
  // indexed by job id (a hash probe per lookup would dominate the apply and
  // the sample replay). Whether the segment is open is running_[id], not a
  // field here; a closed segment's slot keeps stale values until the next
  // resume overwrites it.
  struct RunSegment {
    SimTime start;       // start of the unfolded chunk (resume or last fold)
    SimTime finish_at;   // when the finish timer fires
    SimDuration warmup;  // no-progress prefix still ahead as of `start`
    double rate;         // mini-batches/s once warmed up
    cluster::GpuGeneration gen;
    uint32_t running_pos = 0;  // index into running_list_ while running
    uint32_t next_sync = 0;    // first sync point not yet folded
  };

  RunSegment& SegmentOf(JobId id);

  // Progress accumulated in a segment after `elapsed` of wall time.
  static double SegmentProgress(const RunSegment& seg, SimDuration elapsed);

  // One flush step: progress and GPU time over [seg.start, until) go into
  // the job, and the chunk restarts at `until` carrying any unfinished
  // warm-up. No-op when until <= seg.start.
  static void FoldChunk(workload::Job& job, RunSegment& seg, SimTime until);
  // Folds the segment chunk by chunk through the sync points recorded since
  // its last fold, then up to now. Returns the chunk start the open pool
  // hold carries for it (its last sync point or fold, at most now). Touches
  // only the job and its segment, so the parallel prepare may call it.
  SimTime FoldToNow(workload::Job& job, RunSegment& seg) const;

  // Ends a run segment: fold progress, credit GPU time, release GPUs.
  void CloseSegment(workload::Job& job, bool cancel_finish_event);

  // Per (user, pool): GPUs held by open segments and the sum of gang x chunk
  // start over them, both exact integers. GPU-ms accrued by `now` since each
  // segment's chunk start is then gpus * now - gang_start_ms. Serial-phase
  // state: only CommitOp and other serial points change it.
  struct PoolHold {
    int64_t gpus = 0;
    int64_t gang_start_ms = 0;
  };
  PoolHold& HoldOf(UserId user, cluster::GpuGeneration pool);
  // A segment of `gang` GPUs opens a chunk at `start`.
  void OpenHold(UserId user, cluster::GpuGeneration pool, int gang, SimTime start);
  // A segment of `gang` GPUs whose chunk started at `chunk_start` closes now:
  // credits its GPU time since then and drops it from the pool's hold.
  void CloseHold(UserId user, cluster::GpuGeneration pool, int gang, SimTime chunk_start);

  void OnFinishEvent(JobId id);
  // The finish itself, for a job already off its GPUs: work complete,
  // kFinished at now, finished callback.
  void CompleteJob(workload::Job& job);

  // Per-model costs, resolved once per model instead of recomputing the
  // latency formula (and its Seconds() rounding) on every suspend/resume.
  struct ModelCosts {
    SimDuration suspend = 0;
    SimDuration resume = 0;
    bool init = false;
  };
  const ModelCosts& CostsFor(workload::ModelId model);

  // The job's finish timer slot (created at first resume; see
  // EventQueue timers): armed at each resume, disarmed at each suspend.
  simkit::TimerId FinishTimerFor(JobId id);

  // Shared resume body: `overlap_allowance` is the largest suspend latency
  // earlier in the same apply slice (0 outside overlap mode).
  void ResumeWithOverlap(JobId id, SimDuration overlap_allowance);

  // Shared Migrate/MigrateTail body; `dirty_fraction` scales the transfer.
  void DoMigrate(JobId id, ServerId dest, double transfer_fraction);

  // A checkpoint transfer reached its scheduled landing time: success, or
  // fall back to the source, or orphan when both ends are gone.
  void FinishMigration(JobId id, ServerId dest);

  // A pre-copy bulk transfer reached its landing time: validate, ask the
  // scheduler to cut over, or abandon the transfer.
  void PrecopyCutover(JobId id, ServerId source, ServerId dest);

  // Post-compression GB on the wire for a full checkpoint of `model`.
  double CompressedGb(workload::ModelId model) const;
  // Transfer seconds (compression CPU + wire time) for `gb` compressed GB,
  // stretched by current contention.
  SimDuration TransferTime(double compressed_gb, double compress_cpu_s) const;

  // Shared orphan mechanics for FailServer and FinishMigration: close the
  // segment if running, roll back to the checkpoint, queue the job. Does NOT
  // fire the orphan callback — callers sequence that themselves.
  void OrphanJob(workload::Job& job);

  simkit::Simulator& sim_;
  cluster::Cluster& cluster_;
  const workload::ModelZoo& zoo_;
  workload::JobTable& jobs_;
  ExecutorConfig config_;
  Rng rng_;
  // Separate stream for transfer-failure draws: seeded independently of
  // rng_ so enabling migrate_failure_prob leaves profiler noise unchanged.
  Rng fault_rng_;

  std::vector<RunSegment> segments_;  // indexed by job id; see RunSegment
  // Indexed by job id, sized with segments_: 1 while the job holds GPUs (an
  // open segment). The only record of "running"; see IsRunning.
  std::vector<uint8_t> running_;
  std::vector<JobId> running_list_;   // ids of active segments (swap-erase)
  // Sync point instants, ascending; a segment folds those from its
  // next_sync on. One entry per tick with running jobs.
  std::vector<SimTime> sync_points_;
  std::vector<cluster::PerGeneration<PoolHold>> pool_holds_;  // by user id
  // Jobs a Suspend caught at their finish instant, awaiting
  // FinishSuspendedAtFinish.
  std::vector<JobId> done_at_suspend_;
  std::vector<ModelCosts> model_costs_;       // indexed by model id
  std::vector<simkit::TimerId> finish_timer_;  // indexed by job id
  int migrations_in_flight_ = 0;

  // An in-flight pre-copy bulk transfer. The record is validated at cutover
  // (the job may have finished, moved, or been orphaned mid-flight), so no
  // eager invalidation is needed anywhere.
  struct PendingPrecopy {
    JobId job;
    ServerId source;
    ServerId dest;
  };
  std::vector<PendingPrecopy> pending_precopies_;

  // Deferred per-op commit state for ApplyDeltaParallel: everything the
  // parallel prepare pass computed but must apply serially in op order.
  struct PreparedOp {
    SimTime finish_at = 0;             // resumes: when the finish timer fires
    SimDuration overlap_hidden = 0;    // resumes: warm-up hidden by overlap
    UserId user;                       // the pool hold to open or close
    cluster::GpuGeneration gen{};
    int gpus = 0;
    SimTime chunk_start = 0;     // suspends: the closing chunk's start
    bool done = false;           // suspends: caught at the finish instant
  };
  std::vector<PreparedOp> prepared_scratch_;
  std::vector<size_t> slice_offsets_;  // per slice, its first prepared_scratch_ slot

  // ApplyDeltaParallel's three passes (see the public method for the
  // contract): prepare runs concurrently across slices and touches only
  // per-job/per-server state; commit replays the order-sensitive remainder
  // serially in op order.
  PreparedOp PrepareResume(JobId id, SimDuration overlap_allowance);
  PreparedOp PrepareSuspend(JobId id);
  void CommitOp(const ScheduleOp& op, const PreparedOp& prepared);

  // Committed only at serial points, through the ReduceToken-gated
  // mutators (an audit of every site is in the class comment above).
  MigrationAccounting acct_;

  JobFinishedCallback on_finished_;
  MigrationDoneCallback on_migrated_;
  MigrationFailedCallback on_migration_failed_;
  JobOrphanedCallback on_orphaned_;
  ServerEventCallback on_server_down_;
  ServerEventCallback on_server_up_;
  CreditCallback on_gpu_credit_;
  PrecopyCutoverCallback on_precopy_cutover_;
};

}  // namespace gfair::exec

#endif  // GFAIR_EXEC_EXECUTOR_H_
