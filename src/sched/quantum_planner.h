// QuantumPlanner — the pure planning layer of the quantum pipeline.
//
// Maps a read-only view of cluster + stride state to a SchedulePlan: for
// each up server, the jobs that should hold its GPUs for the coming quantum
// (the per-server stride selection). No side effects — the planner mutates
// neither the executor, the residency, nor the strides; committing the plan
// (virtual-time advance, dirty-flag clear, suspend/resume) is the facade's
// job. That purity is what allows diffing against a live cluster, replanning
// in tests without perturbing a run, and — later — sharding the per-server
// loop across threads.
//
// Dirty-set skip. A server is planned only when its schedule can have
// changed; otherwise it is skipped outright and per-quantum planning cost
// becomes proportional to churn, not cluster size. Skipping is sound when
// BOTH hold:
//
//   (a) !index.plan_dirty(server) — no arrival/completion/migration or
//       up/down transition since the facade last committed a plan for this
//       server (ClusterStateIndex maintains the flag). Ticket re-pricing
//       deliberately does not count: tickets only move passes, and under (b)
//       the target is every runnable resident whatever the passes; and
//   (b) server.num_busy() == stride.DemandLoad() — the GPUs held by running
//       jobs exactly cover the runnable residents' demand.
//
// Why that implies an empty diff: running jobs are always runnable residents
// of their server's stride (the facade suspends before any detach), so each
// running job contributes its whole gang to both sides of (b); equality
// therefore forces the running set to BE the runnable set. And since total
// runnable demand equals busy ≤ capacity, a selection walk admits every
// candidate — the target is exactly the runnable set, i.e. exactly what is
// already running. Nothing to suspend, nothing to resume. Condition (a)
// guards the cancel-out hole (b) alone would leave: simultaneous offsetting
// changes (e.g. a job finishing while an equal-gang job arrives suspended)
// keep busy == demand while the target genuinely changed.
//
// A skipped server still owes its virtual-time advance (the floor at the
// minimum runnable pass that selection used to apply); the planner reports
// it in SchedulePlan::skipped_vt from a heap peek without planning.
#ifndef GFAIR_SCHED_QUANTUM_PLANNER_H_
#define GFAIR_SCHED_QUANTUM_PLANNER_H_

#include <vector>

#include "common/types.h"
#include "sched/cluster_state_view.h"
#include "sched/schedule_plan.h"

namespace gfair::sched {

class QuantumPlanner {
 public:
  // The planner sees cluster + stride state only through the deep-const
  // ClusterStateView: a mutation from planning code is a compile error, not
  // a convention (the old comment-only contract).
  explicit QuantumPlanner(ClusterStateView view) : view_(view) {}

  // Plans every up server (ascending id), skipping provably-unchanged ones.
  // Overwrites `plan`.
  void PlanTick(SchedulePlan* plan) const;

  // The per-server step PlanTick composes: appends either a ServerTarget
  // (planned) or a skipped_vt entry (skip conditions hold) for `server`.
  // Returns true when the server was planned. Exposed so the facade can fuse
  // planning into its per-server tick loop while the server's stride state
  // is cache-hot; servers are planned independently, so per-server calls in
  // ascending id order build exactly PlanTick's plan. Precondition: up.
  // [[nodiscard]]: the caller owes the commit step (virtual-time advance +
  // dirty clear) only for planned servers, so the planned/skipped outcome
  // must not be dropped.
  [[nodiscard]] bool PlanServerOrSkip(ServerId server, SchedulePlan* plan) const;

  // Plans one server into `plan` (no skip check). Precondition: up.
  void PlanServer(ServerId server, SchedulePlan* plan) const;

 private:
  const ClusterStateView view_;
  mutable std::vector<JobId> select_scratch_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_QUANTUM_PLANNER_H_
