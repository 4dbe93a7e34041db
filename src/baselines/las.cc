#include "baselines/las.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/check.h"

namespace gfair::baselines {

using workload::Job;

void LeastAttainedServiceScheduler::Start() {
  env_.sim.Every(config_.quantum, [this]() { Tick(); });
}

ServerId LeastAttainedServiceScheduler::ChooseServer(const Job& job) const {
  // Least resident demand per GPU, fastest generation first.
  ServerId best = ServerId::Invalid();
  double best_load = std::numeric_limits<double>::infinity();
  const auto& model = env_.zoo.Get(job.model);
  for (size_t g = cluster::kNumGenerations; g-- > 0;) {
    if (!model.FitsGeneration(cluster::kAllGenerations[g])) {
      continue;
    }
    for (ServerId id : env_.cluster.servers_of(cluster::kAllGenerations[g])) {
      const auto& server = env_.cluster.server(id);
      if (server.num_gpus() < job.gang_size) {
        continue;
      }
      double demand = 0.0;
      for (JobId resident : resident_[id.value()]) {
        demand += env_.jobs.Get(resident).gang_size;
      }
      const double load = demand / server.num_gpus();
      if (load < best_load - 1e-9) {
        best_load = load;
        best = id;
      }
    }
    if (best.valid()) {
      return best;  // stay within the fastest generation that can host it
    }
  }
  return best;
}

void LeastAttainedServiceScheduler::Submit(JobId id) {
  const Job& job = env_.jobs.Get(id);
  const ServerId server = ChooseServer(job);
  GFAIR_CHECK_MSG(server.valid(), "no server can host this gang");
  env_.exec.MakeResident(id, server);
  resident_[server.value()].insert(id);
  ledger_.RecordDemandChange(job.user, env_.cluster.server(server).generation(),
                             env_.sim.Now(), job.gang_size);
  // Opportunistic start on idle GPUs (new jobs have zero attained service,
  // but we do not preempt mid-quantum).
  if (env_.cluster.server(server).CanFit(job.gang_size)) {
    env_.exec.Resume(id);
  }
}

void LeastAttainedServiceScheduler::OnJobFinished(JobId id) {
  const Job& job = env_.jobs.Get(id);
  ServerId home = ServerId::Invalid();
  for (size_t s = 0; s < resident_.size(); ++s) {
    if (resident_[s].erase(id) > 0) {
      home = ServerId(static_cast<uint32_t>(s));
      break;
    }
  }
  GFAIR_CHECK(home.valid());
  ledger_.RecordDemandChange(job.user, env_.cluster.server(home).generation(),
                             env_.sim.Now(), -job.gang_size);
  // Fill the freed GPUs without preempting anyone mid-quantum.
  ApplyServer(home, /*allow_preempt=*/false);
}

std::vector<JobId> LeastAttainedServiceScheduler::RankedResidents(
    ServerId server) const {
  std::vector<JobId> jobs(resident_[server.value()].begin(),
                          resident_[server.value()].end());
  std::sort(jobs.begin(), jobs.end(), [this](JobId a, JobId b) {
    const double service_a = env_.jobs.Get(a).TotalGpuMs();
    const double service_b = env_.jobs.Get(b).TotalGpuMs();
    if (service_a != service_b) {
      return service_a < service_b;
    }
    return a < b;
  });
  return jobs;
}

void LeastAttainedServiceScheduler::ApplyServer(ServerId server, bool allow_preempt) {
  const auto& host = env_.cluster.server(server);
  // Greedy pack in LAS order; skip gangs that do not fit.
  std::vector<JobId> target;
  int free = host.num_gpus();
  for (JobId id : RankedResidents(server)) {
    const Job& job = env_.jobs.Get(id);
    if (job.gang_size <= free) {
      target.push_back(id);
      free -= job.gang_size;
    }
  }
  const std::unordered_set<JobId> target_set(target.begin(), target.end());
  if (allow_preempt) {
    for (JobId id : resident_[server.value()]) {
      if (env_.exec.IsRunning(id) && target_set.count(id) == 0) {
        env_.exec.Suspend(id);
      }
    }
  }
  for (JobId id : target) {
    if (!env_.exec.IsRunning(id) &&
        env_.cluster.server(server).CanFit(env_.jobs.Get(id).gang_size)) {
      env_.exec.Resume(id);
    }
  }
}

void LeastAttainedServiceScheduler::Tick() {
  // Fold open segments so attained service is current for ranking.
  env_.exec.SyncAll();
  for (const auto& server : env_.cluster.servers()) {
    ApplyServer(server.id(), /*allow_preempt=*/true);
  }
  // Jobs the preemptions caught at their finish instant finish now.
  env_.exec.FinishSuspendedAtFinish();
}

}  // namespace gfair::baselines
