// ClusterStateView — the deep-const read surface of the scheduler state.
//
// The quantum pipeline's planning stages (QuantumPlanner, PlanDiffer) are
// pure: they map cluster + stride state to value types and mutate nothing.
// Before this wrapper that purity was a comment-level contract — the planner
// held a `const ClusterStateIndex&`, but one `const_cast`, one mutable
// member, or one future accessor returning a non-const reference away from
// silently breaking reproducibility. The view makes the contract structural:
//
//  * it exposes ONLY the read-side queries (stride() const, loads, flags,
//    pool orderings) — the index's mutators (AddJob, InvalidateTicketLoad,
//    ClearPlanDirty, ...) simply do not exist on this type, so a mutation
//    from planning code is a compile error, not a convention;
//  * every accessor is const and returns by value or by const reference, so
//    const-ness propagates through to LocalStrideScheduler and Server
//    (deep const, not C++'s default shallow const);
//  * it is two pointers, passed by value — cheap enough to hand to every
//    planning helper without lifetime questions.
//
// tests/lint/const_view_must_not_compile.cc is the negative-compile proof;
// tests/sched/const_view_static_test.cc pins the read-only member surface
// with static_asserts that fail the build if a mutator ever leaks in.
#ifndef GFAIR_SCHED_CLUSTER_STATE_VIEW_H_
#define GFAIR_SCHED_CLUSTER_STATE_VIEW_H_

#include <cstddef>

#include "cluster/cluster.h"
#include "common/types.h"
#include "sched/cluster_state_index.h"
#include "sched/stride.h"

namespace gfair::sched {

class ClusterStateView {
 public:
  ClusterStateView(const cluster::Cluster& cluster, const ClusterStateIndex& index)
      : cluster_(&cluster), index_(&index) {}

  // --- cluster topology / occupancy (read-only) ---
  const cluster::Server& server(ServerId id) const { return cluster_->server(id); }
  const std::vector<cluster::Server>& servers() const { return cluster_->servers(); }
  const std::vector<ServerId>& servers_of(cluster::GpuGeneration gen) const {
    return cluster_->servers_of(gen);
  }
  size_t num_servers() const { return index_->num_servers(); }

  // --- per-server stride state (deep const: mutators are inaccessible) ---
  const LocalStrideScheduler& stride(ServerId server) const {
    return index_->stride(server);
  }

  // --- scheduler flags ---
  bool plan_dirty(ServerId server) const { return index_->plan_dirty(server); }
  bool draining(ServerId server) const { return index_->draining(server); }
  bool down(ServerId server) const { return index_->down(server); }

  // --- load queries ---
  // Dimensionless ordering key (see ClusterStateIndex::NormTicketLoad).
  double NormTicketLoad(ServerId server) const {  // gfair-lint: allow(raw-double-in-sched-api)
    return index_->NormTicketLoad(server);
  }
  ServerId LeastLoadedServer(cluster::GpuGeneration gen, int min_gpus,
                             ServerId exclude = ServerId::Invalid()) const {
    return index_->LeastLoadedServer(gen, min_gpus, exclude);
  }

 private:
  const cluster::Cluster* cluster_;
  const ClusterStateIndex* index_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_CLUSTER_STATE_VIEW_H_
