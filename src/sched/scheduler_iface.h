// IScheduler — the policy interface shared by Gandiva_fair and all baselines.
//
// A scheduler policy receives job lifecycle notifications and drives the
// Executor (place / resume / suspend / migrate). Harnesses construct the
// environment, wire executor callbacks to the policy, replay a trace, and
// read results from the jobs table and the fairness ledger.
#ifndef GFAIR_SCHED_SCHEDULER_IFACE_H_
#define GFAIR_SCHED_SCHEDULER_IFACE_H_

#include <string>

#include "cluster/cluster.h"
#include "common/types.h"
#include "exec/executor.h"
#include "sched/ledger.h"
#include "simkit/simulator.h"
#include "workload/job.h"
#include "workload/model_zoo.h"
#include "workload/user.h"

namespace gfair::sched {

// Everything a policy needs, owned by the harness.
struct SchedulerEnv {
  simkit::Simulator& sim;
  cluster::Cluster& cluster;
  const workload::ModelZoo& zoo;
  workload::JobTable& jobs;
  workload::UserTable& users;
  exec::Executor& exec;
};

class IScheduler {
 public:
  virtual ~IScheduler() = default;

  // Installs periodic events (quantum ticks, trading epochs, ...). Called
  // once before the simulation runs.
  virtual void Start() = 0;

  // A new job arrived (already created in the JobTable, state kQueued).
  virtual void Submit(JobId id) = 0;

  // Executor notifications (wired by the harness).
  virtual void OnJobFinished(JobId id) = 0;
  virtual void OnMigrationDone(JobId id) = 0;

  // Fault-plane notifications. Default no-ops: baselines that predate the
  // fault plane (and the frozen legacy monolith) ignore failures — harnesses
  // simply never inject faults against them.
  virtual void OnJobOrphaned(JobId /*id*/) {}
  virtual void OnMigrationFailed(JobId /*id*/, ServerId /*dest*/) {}
  virtual void OnServerDown(ServerId /*id*/) {}
  virtual void OnServerUp(ServerId /*id*/) {}

  virtual std::string name() const = 0;

  // Every policy carries a ledger so experiments can compare per-user GPU
  // time uniformly across policies.
  virtual FairnessLedger& policy_ledger() = 0;
};

// Connects executor completion/migration/credit callbacks to the policy.
inline void WireCallbacks(exec::Executor& exec, IScheduler& policy) {
  exec.set_on_job_finished([&policy](JobId id) { policy.OnJobFinished(id); });
  exec.set_on_migration_done([&policy](JobId id) { policy.OnMigrationDone(id); });
  exec.set_on_job_orphaned([&policy](JobId id) { policy.OnJobOrphaned(id); });
  exec.set_on_migration_failed(
      [&policy](JobId id, ServerId dest) { policy.OnMigrationFailed(id, dest); });
  exec.set_on_server_down([&policy](ServerId id) { policy.OnServerDown(id); });
  exec.set_on_server_up([&policy](ServerId id) { policy.OnServerUp(id); });
  exec.set_on_gpu_credit(
      [&policy](UserId user, cluster::GpuGeneration pool, SimTime at, int64_t gpu_ms) {
        policy.policy_ledger().CreditGpuMs(user, pool, at, gpu_ms);
      });
}

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_SCHEDULER_IFACE_H_
