// SchedulePlan / ScheduleDelta — the value types of the quantum pipeline.
//
// The quantum tick is split into three layers (see docs/ARCHITECTURE.md):
//
//   QuantumPlanner:  ClusterStateIndex snapshot  →  SchedulePlan   (pure)
//   PlanDiffer:      SchedulePlan × running set  →  ScheduleDelta  (pure)
//   Executor:        ApplyDeltaParallel(per-server slices of the
//                    ScheduleDelta): prepare, then commit          (mutates)
//
// A SchedulePlan is the *desired* occupancy: for each planned server, the
// ordered set of jobs that should hold its GPUs for the coming quantum.
// Per-server target lists are spans into one flat job pool, so planning a
// 2000-GPU cluster allocates nothing after the first tick — both vectors are
// cleared and refilled in place.
//
// Migration decisions made between quanta (balancer passes, trades, steals,
// probes) are emitted into the same plan as MigrationDirectives, so every
// placement-changing intent flows through one type on its way to the
// executor and the decision log.
//
// A ScheduleDelta is the minimal set of executor verbs that moves the
// cluster from its current occupancy to the plan: per server, suspends
// strictly before resumes (a resume may need the GPUs a suspend frees),
// servers in plan (ascending id) order.
#ifndef GFAIR_SCHED_SCHEDULE_PLAN_H_
#define GFAIR_SCHED_SCHEDULE_PLAN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "exec/schedule_op.h"
#include "sched/decision_log.h"

namespace gfair::sched {

// One cross-server move decided by a subsystem (balancer / trader /
// placement stealing), tagged with its cause for the decision log.
struct MigrationDirective {
  JobId job;
  ServerId dest;
  MigrationCause cause;
};

struct SchedulePlan {
  // Desired occupancy of one server, as [target_begin, target_end) into
  // `target_jobs`, in stride-selection order.
  struct ServerTarget {
    ServerId server;
    uint32_t target_begin = 0;
    uint32_t target_end = 0;
    // Minimum pass over the server's runnable residents (+inf when none):
    // the virtual-time floor the facade commits when it accepts the plan.
    Pass min_runnable_pass;
  };

  std::vector<JobId> target_jobs;       // flat pool backing all spans
  std::vector<ServerTarget> servers;    // planned servers, ascending id
  // Servers the planner skipped because their schedule provably cannot have
  // changed (see QuantumPlanner); they still owe a virtual-time advance,
  // carried here as (server, min runnable pass).
  std::vector<std::pair<ServerId, Pass>> skipped_vt;
  std::vector<MigrationDirective> migrations;

  void Clear() {
    target_jobs.clear();
    servers.clear();
    skipped_vt.clear();
    migrations.clear();
  }
};

struct ScheduleDelta {
  // Executor verbs in application order (exec::ScheduleOp: suspends carry
  // the server the job runs on; resumes the server whose GPUs it takes).
  std::vector<exec::ScheduleOp> ops;

  void Clear() { ops.clear(); }
  bool empty() const { return ops.empty(); }
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_SCHEDULE_PLAN_H_
