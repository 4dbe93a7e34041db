#include "sched/plan_shard.h"

#include <cstdint>
#include <utility>

namespace gfair::sched {

PlanShard::PlanShard(QuantumPlanner planner, PlanDiffer differ,
                     size_t server_begin, size_t server_end)
    : planner_(std::move(planner)),
      differ_(std::move(differ)),
      server_begin_(server_begin),
      server_end_(server_end) {}

void PlanShard::BeginTick(common::ShardToken) {
  plan_.Clear();
  delta_.Clear();
  slice_begins_.clear();
  pending_samples_.clear();
}

namespace {

// Appends `from` onto `to`. Onto an empty `to` the buffers are swapped
// instead: the same contents without a copy (the first shard of every tick
// merges this way), and the shard's next BeginTick clears what it receives.
template <typename T>
void Append(std::vector<T>* from, std::vector<T>* to) {
  if (to->empty()) {
    to->swap(*from);
  } else {
    to->insert(to->end(), from->begin(), from->end());
  }
}

}  // namespace

void PlanShard::MergeInto(SchedulePlan* plan, ScheduleDelta* delta,
                          std::vector<size_t>* slice_begins,
                          common::ReduceToken) {
  // Plan merge: re-base each server target's span into the merged
  // target-job pool. (Shard plans carry no migrations — directives are
  // emitted between ticks or after the apply, straight into the merged
  // plan.)
  const uint32_t job_base = static_cast<uint32_t>(plan->target_jobs.size());
  for (SchedulePlan::ServerTarget& target : plan_.servers) {
    target.target_begin += job_base;
    target.target_end += job_base;
  }
  Append(&plan_.target_jobs, &plan->target_jobs);
  Append(&plan_.servers, &plan->servers);
  Append(&plan_.skipped_vt, &plan->skipped_vt);
  // Delta merge, re-basing each diffed server's slice offset.
  const size_t ops_base = delta->ops.size();
  for (size_t& begin : slice_begins_) {
    begin += ops_base;
  }
  Append(&slice_begins_, slice_begins);
  Append(&delta_.ops, &delta->ops);
}

}  // namespace gfair::sched
