// GandivaFairScheduler — the paper's scheduler, end to end.
//
// A facade over the subsystems that share two incrementally-maintained
// indices:
//
//   ClusterStateIndex   per-server stride schedulers + cached ticket/demand
//                       loads + per-pool servers ordered by normalized load
//                       + the per-server plan-dirty set
//   ResidencyIndex      per-job bookkeeping + per-user per-pool resident
//                       job sets and demand aggregates
//   QuantumPlanner      pure per-quantum planning (state -> SchedulePlan)
//   PlanDiffer          plan -> minimal ScheduleDelta of executor verbs
//   PlacementEngine     central placement of arrivals + work stealing
//   LoadBalancer        periodic balancing passes + drain batches
//   TradeCoordinator    profiling, probe migrations, trading epochs
//
// The facade implements the event-driven core (submit/finish/migration
// callbacks) and the cross-cutting services the subsystems consume via
// ISchedulerHost (EmitMigration, entitlements, ticket refresh). The quantum
// tick itself is one pipeline over the planner/differ value types, run the
// same way for every knob value:
//
//   sync point (Executor::SyncPoint: GPU time credited per user and pool;
//               run segments fold their progress lazily)
//   per shard:  per up server, charge -> plan or skip -> commit (vt, dirty)
//               -> diff   (shards on the tick pool when plan_threads > 1)
//   reduce:     profiler sample draws, then the shard plans/deltas merged
//               in ascending server order
//   apply:      one Executor::ApplyDeltaParallel call (prepare pass on the
//               tick pool when apply_threads > 1, serial commit) -> record
//               decisions
//
// Shards are contiguous server-id ranges; plan_shards = 1 is one shard
// spanning every server. The charge walks each up server's running jobs by
// stride entry position. Profiler samples are drawn only when trade epochs
// run (trading on a multi-generation cluster): the epochs are the
// profiler's only reader. Decisions are bit-identical for any shard and
// thread count (see DESIGN.md "Quantum pipeline", and docs/ARCHITECTURE.md
// "Quantum tick" for the full walk-through).
//
// Combines, on top of the Executor substrate:
//   * per-server gang-aware stride schedulers driven by a global quantum tick
//     (split stride design: central placement, local time slicing);
//   * ticket-load-aware central placement of arriving jobs;
//   * migration-based load balancing within each generation pool;
//   * transparent throughput profiling of running jobs (plus bounded probe
//     migrations to cover missing generations);
//   * epoch-based automatic resource trading across generation pools, with
//     residency rebalancing so jobs follow their user's traded entitlements;
//   * a FairnessLedger recording per-user GPU time and demand for evaluation.
#ifndef GFAIR_SCHED_GANDIVA_FAIR_H_
#define GFAIR_SCHED_GANDIVA_FAIR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/phase_tokens.h"
#include "common/thread_pool.h"
#include "sched/cluster_state_index.h"
#include "sched/decision_log.h"
#include "sched/invariant_checker.h"
#include "sched/ledger.h"
#include "sched/placement_engine.h"
#include "sched/plan_differ.h"
#include "sched/plan_shard.h"
#include "sched/load_balancer.h"
#include "sched/profiler.h"
#include "sched/quantum_planner.h"
#include "sched/residency_index.h"
#include "sched/schedule_plan.h"
#include "sched/scheduler_host.h"
#include "sched/scheduler_iface.h"
#include "sched/snapshot.h"
#include "sched/stride.h"
#include "sched/ticket_matrix.h"
#include "sched/trade.h"
#include "sched/trade_coordinator.h"

namespace gfair::sched {

struct GandivaFairConfig {
  // --- local stride scheduling ---
  StrideConfig stride;                  // gang-awareness knobs (both on by default)
  SimDuration quantum = Minutes(1);

  // --- migration-based load balancing ---
  bool enable_load_balancing = true;
  SimDuration balance_period = Minutes(5);
  // Rebalance when (max - min) per-server ticket load exceeds this fraction
  // of the pool's mean load.
  double balance_threshold = 0.15;
  int max_migrations_per_round = 16;
  // A job is not migrated again within this interval (amortizes cost).
  SimDuration min_migration_interval = Minutes(10);

  // --- resource trading ---
  bool enable_trading = true;
  SimDuration trade_period = Minutes(10);
  TradeConfig trade;
  // Allocation backend computing each epoch's entitlements, resolved against
  // the AllocationPolicyRegistry ("greedy" = the paper's trade loop;
  // "themis" and "gavel" are the auction-style alternatives). Unknown names
  // CHECK-fail at scheduler construction with the registered listing.
  std::string allocation_policy = "greedy";
  // Residency-rebalancing migrations allowed per trade epoch.
  int max_trade_migrations = 32;

  // --- profiling ---
  size_t profile_min_samples = 3;
  // Probe migrations (to cover missing generations) allowed per trade epoch.
  int max_probes_per_epoch = 2;

  // --- hierarchical sharing ---
  // When users carry group labels (User::group), split cluster tickets
  // group-first: a group's weight (sum of member base tickets) is divided
  // among its ACTIVE members, so team shares are headcount-independent.
  // No-op when no user is grouped.
  bool enable_hierarchical_sharing = true;

  // --- work stealing ---
  // When a server has idle GPUs and no resident job fits them, pull a
  // fitting suspended job from an oversubscribed server of the same pool
  // (event-driven work conservation; at most once per server per quantum).
  bool enable_work_stealing = true;

  // --- fault tolerance ---
  // Bounded retry for failed checkpoint transfers: attempt k waits
  // migration_retry_backoff * 2^(k-1), then re-targets the least-loaded up
  // server of the original destination pool. After migration_max_retries
  // failed attempts the job simply stays at its source (the next balance
  // pass or trade epoch may move it again) — it is never left migrating.
  int migration_max_retries = 3;
  SimDuration migration_retry_backoff = Seconds(30);

  // --- quantum-tick threading ---
  // The tick always runs the same pipeline (see the class comment); these
  // knobs only split its work, and decisions, RNG draws, event ids and
  // accounting are bit-identical for any values (the equivalence suite's
  // knob cross-product pins this).
  //
  // Threads (counting the caller) running the apply's prepare pass across
  // the per-server slices via Executor::ApplyDeltaParallel. 1 (the default)
  // prepares inline. Slices target disjoint servers/jobs/GPUs by
  // construction and everything order-sensitive is committed serially in
  // op order.
  int apply_threads = 1;

  // Number of fixed contiguous server-id ranges the charge/plan/commit/diff
  // stage is split into, each with its own planner/differ/plan/delta (the
  // per-server dirty-set skip keeps each shard's work proportional to its
  // churn). A serial reduce step then owns every cross-shard concern: the
  // profiler sample draws (the executor RNG stays one serial stream) and
  // the plan/delta merge in ascending server order. Balancer / steal /
  // trade MigrationDirectives never run inside the shard fan-out — they are
  // emitted between ticks or after the apply, straight into the merged
  // plan. 1 (the default) is one shard spanning every server. Counts above
  // the server count are clamped.
  int plan_shards = 1;
  // Threads (counting the caller) fanning the shards across the tick's
  // ThreadPool. 1 walks the shards inline on the caller; >1 shares one pool
  // with the apply's prepare pass, sized max(plan_threads, apply_threads).
  int plan_threads = 1;
};

// Exponential migration-retry backoff for 1-based attempt k:
// base * 2^(k-1), saturating at one simulated day. A plain shift overflows
// SimDuration once k nears 63 (and goes negative well before that for large
// bases), which a high migration_max_retries config can reach; saturation
// keeps every attempt's delay finite and monotone instead.
SimDuration RetryBackoff(SimDuration base, int attempt);

class GandivaFairScheduler : public IScheduler, private ISchedulerHost {
 public:
  GandivaFairScheduler(const SchedulerEnv& env, GandivaFairConfig config);

  void Start() override;
  void Submit(JobId id) override;
  void OnJobFinished(JobId id) override;
  void OnMigrationDone(JobId id) override;
  void OnJobOrphaned(JobId id) override;
  void OnMigrationFailed(JobId id, ServerId dest) override;
  void OnServerDown(ServerId id) override;
  void OnServerUp(ServerId id) override;
  std::string name() const override { return "GandivaFair"; }
  FairnessLedger& policy_ledger() override { return ledger_; }

  // --- introspection (tests, benches, examples) ---
  FairnessLedger& ledger() { return ledger_; }
  const FairnessLedger& ledger() const { return ledger_; }
  const ProfileStore& profiles() const { return trader_.profiles(); }
  ProfileStore& mutable_profiles() { return trader_.mutable_profiles(); }
  const TicketMatrix& tickets() const { return ticket_matrix_; }
  const std::vector<Trade>& executed_trades() const { return trader_.executed_trades(); }
  int64_t migrations_started() const { return migrations_started_; }
  int64_t steals_started() const { return placement_.steals_started(); }
  int64_t orphans_replaced() const { return orphans_replaced_; }
  int64_t migration_retries_started() const { return migration_retries_started_; }
  // Orphans currently waiting for an up server (retried every quantum tick
  // and on each recovery).
  size_t pending_orphan_count() const { return pending_orphans_.size(); }
  // Structured trace of scheduler decisions (placements, suspends/resumes,
  // migrations by cause, trades).
  const DecisionLog& decisions() const { return decisions_; }
  const LocalStrideScheduler& stride_for(ServerId server) const {
    return index_.stride(server);
  }
  // User's current entitlement (in GPUs) on a pool, given active users.
  double EntitlementGpus(UserId user, cluster::GpuGeneration gen) const override;
  // User's resident GPU demand on a pool.
  double ResidentDemand(UserId user, cluster::GpuGeneration gen) const {
    return residency_.ResidentDemand(user, gen);
  }
  // The tickets a resident `job` of `user` on pool `gen` holds: the user's
  // pool tickets split by weighted demand (pool tickets x share /
  // max(pool demand, share)), recomputed from the ticket matrix and the
  // residency. Resident stride entries read the same split through the
  // rate published at the last refresh; the ticket-derivation invariant
  // checks that the two agree.
  Tickets PerJobTickets(UserId user, cluster::GpuGeneration gen,
                        const workload::Job& job) const;
  const GandivaFairConfig& config() const { return config_; }
  const ClusterStateIndex& cluster_index() const { return index_; }
  const ResidencyIndex& residency() const { return residency_; }

  // Runs every registered cluster-wide invariant (see invariant_checker.h)
  // and returns the violations — empty when the state is consistent. Called
  // automatically after every quantum in Debug builds; exposed so property
  // and fault tests can sweep at arbitrary points.
  std::vector<std::string> CheckInvariants() { return checker_.Check(); }

  // Structured point-in-time view of servers and users (for operators,
  // tools and tests).
  ClusterSnapshot Snapshot() const;

  // --- maintenance ---
  // Marks a server as draining: no new placements or inbound migrations;
  // resident jobs are migrated off (a bounded batch per balance tick, plus
  // an immediate batch now). Safe to call repeatedly.
  void DrainServer(ServerId server);
  // Returns a drained server to service.
  void UndrainServer(ServerId server);
  bool IsDraining(ServerId server) const { return index_.draining(server); }

 private:
  // --- ISchedulerHost (services the subsystems call back into) ---
  void EmitMigration(JobId id, ServerId dest, MigrationCause cause) override;
  void RefreshAllTickets() override;
  void ReplaceOrphan(JobId id) override;

  cluster::GpuGeneration GenOf(ServerId server) const;

  // Periodic events.
  void QuantumTick();

  // Quantum pipeline stages (see class comment). The fork-join phases carry
  // phase-capability tokens (common/phase_tokens.h): a ShardToken is minted
  // per shard inside the fan-out and unlocks only that shard's PlanShard
  // state; a ReduceToken is minted only at serial points and unlocks the
  // cross-shard merge, the deferred profiler-sample replay and the
  // executor's global accounting. Only this facade (and the executor, for
  // ReduceToken) can mint them, so phase violations are compile errors.
  // Charges one up server's stride passes and, when trading_, buffers its
  // running jobs for the reduce step's serial sample replay (the draw itself
  // consumes the executor's single RNG stream, so it cannot run here).
  void ChargeServer(ServerId server, std::vector<PendingSample>* pending_samples,
                    common::ShardToken token);
  // The per-shard phase: charge / plan-or-skip / commit / diff every up
  // server of the shard's range into the shard's own plan + delta
  // (sched/plan_shard.h). May run concurrently across shards — touches only
  // per-server and per-job state owned by the shard's range, unlocked by
  // the shard's token (gfair_lint's shard-locality rule additionally
  // enforces a cross-shard denylist over the region).
  void PlanShardRange(PlanShard& shard, common::ShardToken token);
  // The serial reduce step — the only stage that may touch cross-shard
  // state (it holds the tick's ReduceToken). Replays the buffered profiler
  // samples in ascending server order (one RNG stream, serial draw order),
  // then merges the per-shard plans and deltas into
  // plan_/delta_/slice_begins_; shard order is ascending server order, so
  // the merged streams are the same for any shard count.
  void ReduceShards(common::ReduceToken token);
  // Applies the merged delta_ in one Executor::ApplyDeltaParallel call (its
  // prepare pass fans out over the tick pool only when apply_threads > 1),
  // then records the decisions.
  void ApplyMergedSlices();
  // One DecisionLog record per applied op (in op order) and a last_charge
  // reset per resume.
  void RecordAppliedOps();

  // Mid-quantum work conservation (arrivals/finishes/landed migrations).
  void FillIdleGpus(ServerId server);

  // The shared migration path EmitMigration funnels into.
  void ExecuteMigration(JobId id, ServerId dest, MigrationCause cause);
  // The stop-and-copy step shared by a plain migration and a pre-copy
  // cutover: charge and suspend the job if running, detach it from its
  // source, ship it to `dest` (the full checkpoint, or only the dirtied tail
  // when `precopied`), then refill the source's idle GPUs.
  void StopAndCopy(JobId id, ServerId dest, bool precopied);

  // Residency transitions (stride + residency + ledger, in lockstep).
  void AttachResident(JobId id, ServerId server);
  void DetachResident(JobId id);  // inverse (before migrate/finish)
  // A finished or orphaned resident leaves: its final partial quantum is
  // charged to the stride pass, then it is detached.
  void DetachAfterFinalCharge(JobId id);

  // Fault handling.
  // Per-job migration-retry bookkeeping, indexed by (dense) job id.
  struct RetryState {
    int attempts = 0;  // consecutive failed transfer attempts
    MigrationCause cause = MigrationCause::kBalance;  // cause of the attempt
  };
  RetryState& RetryOf(JobId id);
  // The shared tail of a failed transfer: bump the attempt counter and either
  // schedule a backed-off retry (saturating — see RetryBackoff) or give up
  // and leave the job at its source.
  void ScheduleRetryOrGiveUp(JobId id, ServerId dest);
  // Fires when a backoff timer expires: re-target the least-loaded up server
  // of `gen` and re-start the migration, unless the world moved on (job
  // finished, migrating again, or orphaned meanwhile).
  void RetryMigration(JobId id, cluster::GpuGeneration gen);
  // Executor pre-copy cutover callback: the bulk checkpoint landed at `dest`.
  // Returns true after suspending/detaching the job and starting the
  // stop-and-copy tail; false to abandon (the claim was dropped or the
  // destination became ineligible scheduler-side).
  bool OnPrecopyCutover(JobId id, ServerId dest);
  // Re-attempts placement of every parked orphan.
  void RetryPendingOrphans();

  // Tickets.
  // Recomputes effective base tickets from the group hierarchy after the
  // active-user set changes.
  void ApplyHierarchy();
  // The user's pool rate as the ticket matrix and residency give it now.
  TicketRate CurrentRate(UserId user, cluster::GpuGeneration gen) const;
  // Publishes CurrentRate as the user's pool TicketRate and marks the
  // hosting servers' ticket loads stale.
  void RefreshPoolTickets(UserId user, cluster::GpuGeneration gen);

  SchedulerEnv env_;
  GandivaFairConfig config_;
  // Trade epochs run (enable_trading on a multi-generation cluster). Only
  // they read the profiler, so the tick samples running jobs only then.
  const bool trading_;

  FairnessLedger ledger_;
  TicketMatrix ticket_matrix_;
  DecisionLog decisions_;
  int64_t migrations_started_ = 0;
  int64_t orphans_replaced_ = 0;
  int64_t migration_retries_started_ = 0;

  // Orphans (and arrivals during an outage) with no up server to take them;
  // never dropped — retried every quantum and on each server recovery.
  std::vector<JobId> pending_orphans_;
  std::vector<RetryState> retry_;  // indexed by job id, lazily grown

  // Shared state indices (declared before the subsystems that reference them).
  ClusterStateIndex index_;
  ResidencyIndex residency_;

  // Subsystems.
  PlacementEngine placement_;
  LoadBalancer balancer_;
  TradeCoordinator trader_;

  // The quantum's merged plan and delta (cleared and refilled in place each
  // quantum; steady-state ticks allocate nothing). plan_.migrations
  // additionally collects the directives emitted by balancer/trader/
  // stealing since the last tick.
  SchedulePlan plan_;
  ScheduleDelta delta_;

  // The tick's fork-join pool, shared by the two fan-outs — the shard plan
  // phase (plan_threads) and the apply's prepare pass (apply_threads) —
  // sized max(plan_threads, apply_threads); null when both are 1.
  // slice_begins_ records each diffed server's offset into delta_.ops
  // during the reduce merge; slice_scratch_ materializes the ApplySlice
  // pointers only after the merge, since delta_.ops may reallocate while
  // growing.
  std::unique_ptr<common::ThreadPool> tick_pool_;
  std::vector<size_t> slice_begins_;
  std::vector<exec::Executor::ApplySlice> slice_scratch_;
  // Plan shards: fixed contiguous partition of the server ids into
  // min(plan_shards, servers) ranges, sized once at construction.
  std::vector<PlanShard> shards_;

  // Post-quantum cluster-wide invariant sweep (declared last: reads the
  // subsystems above through `*this` but never mutates them).
  InvariantChecker checker_;

 public:
  // The last quantum's plan and delta (introspection for tests/tools; valid
  // until the next tick).
  const SchedulePlan& last_plan() const { return plan_; }
  const ScheduleDelta& last_delta() const { return delta_; }
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_GANDIVA_FAIR_H_
