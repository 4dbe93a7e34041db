#include "sched/quantum_planner.h"

namespace gfair::sched {

void QuantumPlanner::PlanServer(ServerId server, SchedulePlan* plan) const {
  const LocalStrideScheduler& stride = view_.stride(server);
  SchedulePlan::ServerTarget target;
  target.server = server;
  target.target_begin = static_cast<uint32_t>(plan->target_jobs.size());
  stride.PlanQuantum(&select_scratch_, &target.min_runnable_pass);
  plan->target_jobs.insert(plan->target_jobs.end(), select_scratch_.begin(),
                           select_scratch_.end());
  target.target_end = static_cast<uint32_t>(plan->target_jobs.size());
  plan->servers.push_back(target);
}

bool QuantumPlanner::PlanServerOrSkip(ServerId id, SchedulePlan* plan) const {
  const LocalStrideScheduler& stride = view_.stride(id);
  if (!view_.plan_dirty(id) &&
      view_.server(id).num_busy() == stride.DemandLoad()) {
    // Provably unchanged (see header); only the virtual-time floor is due.
    plan->skipped_vt.emplace_back(id, stride.MinRunnablePass());
    return false;
  }
  PlanServer(id, plan);
  return true;
}

void QuantumPlanner::PlanTick(SchedulePlan* plan) const {
  plan->Clear();
  for (const auto& server : view_.servers()) {
    if (server.up()) {
      (void)PlanServerOrSkip(server.id(), plan);
    }
  }
}

}  // namespace gfair::sched
