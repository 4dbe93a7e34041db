// PlanShard — one shard's private pipeline state for the quantum tick,
// with phase-capability access control. Every tick runs its charge / plan /
// commit / diff stage shard by shard; plan_shards = 1 is one shard spanning
// every server.
//
// Each shard owns a planner/differ pair (both carry per-call scratch), its
// own plan and delta, the per-diffed-server offsets into that delta, and
// the running jobs whose profiler samples the reduce step replays serially.
//
// The tick's fork-join discipline is enforced in the type system
// (common/phase_tokens.h): every mutating stage accessor requires a
// ShardToken — mintable only by the scheduler facade, granted per shard
// inside the plan fan-out — and the cross-shard merge requires a
// ReduceToken, mintable only at the tick's serial points. Parallel code
// reaching for another phase's state is therefore a compile error (pinned
// by the WILL_FAIL negative-compile ctests), complementing the
// comment-fenced `shard-locality` lint region in gandiva_fair.cc.
#ifndef GFAIR_SCHED_PLAN_SHARD_H_
#define GFAIR_SCHED_PLAN_SHARD_H_

#include <cstddef>
#include <vector>

#include "common/phase_tokens.h"
#include "sched/plan_differ.h"
#include "sched/quantum_planner.h"
#include "sched/schedule_plan.h"

namespace gfair::sched {

// A deferred profiler sample: everything RecordSample needs except the
// observed rate itself, captured while the job's info is cache-hot in the
// shard's charge walk. The reduce step's serial replay then touches only
// the executor's segment state per job.
struct PendingSample {
  JobId job;
  workload::ModelId model;
  cluster::GpuGeneration gen;  // the home server's pool
  int gang_size;
};

class PlanShard {
 public:
  // A shard covers the fixed contiguous server id range [begin, end).
  PlanShard(QuantumPlanner planner, PlanDiffer differ, size_t server_begin,
            size_t server_end);

  size_t server_begin() const { return server_begin_; }
  size_t server_end() const { return server_end_; }

  // --- fan-out phase (requires the shard's ShardToken) ---

  // Resets the per-tick value state; called at the top of the shard's
  // charge/plan/diff pass.
  void BeginTick(common::ShardToken);

  QuantumPlanner& planner(common::ShardToken) { return planner_; }
  PlanDiffer& differ(common::ShardToken) { return differ_; }
  SchedulePlan& plan(common::ShardToken) { return plan_; }
  ScheduleDelta& delta(common::ShardToken) { return delta_; }
  // Per diffed server, offsets into delta().ops.
  std::vector<size_t>& slice_begins(common::ShardToken) {
    return slice_begins_;
  }
  // Running jobs buffered in charge order for the reduce's sample replay.
  std::vector<PendingSample>& pending_samples(common::ShardToken) {
    return pending_samples_;
  }

  // --- reduce phase (requires the tick's serial ReduceToken) ---

  const std::vector<PendingSample>& pending_samples(common::ReduceToken) const {
    return pending_samples_;
  }

  // Appends this shard's plan and delta onto the merged streams, re-basing
  // target-job spans and slice offsets; a stream that is still empty takes
  // the shard's buffer instead of a copy. Shards are merged in ascending
  // shard (= server) order by the caller, so the merged streams are in
  // ascending server order and the same for any shard count. Leaves the
  // shard's streams unspecified until its next BeginTick.
  void MergeInto(SchedulePlan* plan, ScheduleDelta* delta,
                 std::vector<size_t>* slice_begins, common::ReduceToken);

 private:
  QuantumPlanner planner_;
  PlanDiffer differ_;
  SchedulePlan plan_;
  ScheduleDelta delta_;
  std::vector<size_t> slice_begins_;
  std::vector<PendingSample> pending_samples_;
  size_t server_begin_ = 0;
  size_t server_end_ = 0;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_PLAN_SHARD_H_
