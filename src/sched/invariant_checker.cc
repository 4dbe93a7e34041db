#include "sched/invariant_checker.h"

#include <cmath>
#include <sstream>

#include "cluster/cluster.h"
#include "exec/executor.h"
#include "sched/cluster_state_index.h"
#include "sched/gandiva_fair.h"
#include "sched/residency_index.h"
#include "workload/job.h"

namespace gfair::sched {

namespace {
// Entitlements are ratios of sums of doubles; conservation holds to rounding.
constexpr double kEntitlementEps = 1e-6;
// Passes are monotone by construction; allow only representation noise.
constexpr Stride kPassEps(1e-9);

std::string Describe(const char* what, JobId job, ServerId server) {
  std::ostringstream os;
  os << what << " (job " << job << ", server " << server << ")";
  return os.str();
}
}  // namespace

const std::vector<InvariantChecker::Registration>& InvariantChecker::Registry() {
  static const std::vector<Registration> kRegistry = {
      {"gang-residency", &InvariantChecker::CheckGangResidency},
      {"entitlement-conservation", &InvariantChecker::CheckEntitlementConservation},
      {"pass-monotonicity", &InvariantChecker::CheckPassMonotonicity},
      {"delta-ordering", &InvariantChecker::CheckDeltaOrdering},
      {"down-holds-nothing", &InvariantChecker::CheckDownServersHoldNothing},
      {"gpu-time-conservation", &InvariantChecker::CheckGpuTimeConservation},
      {"ticket-derivation", &InvariantChecker::CheckTicketDerivation},
  };
  return kRegistry;
}

std::vector<std::string> InvariantChecker::RegisteredNames() {
  std::vector<std::string> names;
  for (const Registration& reg : Registry()) {
    names.emplace_back(reg.name);
  }
  return names;
}

std::vector<std::string> InvariantChecker::Check() {
  std::vector<std::string> violations;
  for (const Registration& reg : Registry()) {
    std::vector<std::string> found;
    (this->*reg.fn)(&found);
    for (std::string& v : found) {
      violations.push_back(std::string(reg.name) + ": " + v);
    }
  }

  // Advance the pass-monotonicity baseline to the current state.
  const ClusterStateIndex& index = sched_.cluster_index();
  if (last_pass_.size() < env_.jobs.size()) {
    last_pass_.resize(env_.jobs.size());
  }
  last_vt_.resize(index.num_servers());
  for (const auto& server : env_.cluster.servers()) {
    const LocalStrideScheduler& stride = index.stride(server.id());
    last_vt_[server.id().value()] = stride.VirtualTime();
    for (JobId id : stride.ResidentJobs()) {
      last_pass_[id.value()] = JobBaseline{server.id(), stride.PassOf(id)};
    }
  }
  // Jobs no longer resident anywhere lose their baseline.
  for (size_t i = 0; i < env_.jobs.size(); ++i) {
    const workload::Job& job = env_.jobs.Get(JobId(static_cast<uint32_t>(i)));
    if (!job.resident() || job.state == workload::JobState::kMigrating) {
      last_pass_[i] = JobBaseline{};
    }
  }
  last_check_ = env_.sim.Now();
  has_baseline_ = true;
  return violations;
}

// A resident job holds its whole gang (running) or nothing (suspended), only
// on its home server; every occupied slot belongs to a running stride
// resident.
void InvariantChecker::CheckGangResidency(std::vector<std::string>* out) const {
  const ClusterStateIndex& index = sched_.cluster_index();
  for (const auto& server : env_.cluster.servers()) {
    const ServerId sid = server.id();
    const LocalStrideScheduler& stride = index.stride(sid);
    int held_total = 0;
    for (JobId id : stride.ResidentJobs()) {
      const workload::Job& job = env_.jobs.Get(id);
      const int held = server.CountHeldBy(id);
      held_total += held;
      if (job.server != sid) {
        out->push_back(Describe("stride resident whose home is elsewhere", id, sid));
      }
      if (env_.exec.IsRunning(id)) {
        if (held != job.gang_size) {
          out->push_back(Describe("running job holding a partial gang", id, sid));
        }
      } else if (held != 0) {
        out->push_back(Describe("non-running job holding GPUs", id, sid));
      }
    }
    // All occupied slots are accounted for by stride residents: a foreign
    // occupant would make held_total (over residents) fall short of busy.
    if (held_total != server.num_busy()) {
      out->push_back(Describe("occupied slots not owned by stride residents",
                              JobId::Invalid(), sid));
    }
  }
}

// Per pool: entitlements of active users are non-negative, finite, and sum
// to the pool's UP capacity — trading redistributes GPUs, never mints them.
void InvariantChecker::CheckEntitlementConservation(
    std::vector<std::string>* out) const {
  const auto& active = sched_.residency().active_users();
  if (active.empty()) {
    return;
  }
  for (cluster::GpuGeneration gen : cluster::kAllGenerations) {
    const int pool = env_.cluster.up_gpus(gen);
    if (pool == 0) {
      continue;
    }
    double total = 0.0;
    for (UserId user : active) {
      const double e = sched_.EntitlementGpus(user, gen);
      if (!std::isfinite(e) || e < 0.0) {
        std::ostringstream os;
        os << "non-finite or negative entitlement for user " << user << " on "
           << cluster::GenerationName(gen) << " (" << e << ")";
        out->push_back(os.str());
      }
      total += e;
    }
    if (std::abs(total - pool) > kEntitlementEps * std::max(1, pool)) {
      std::ostringstream os;
      os << "entitlements sum to " << total << " but up capacity is " << pool
         << " on " << cluster::GenerationName(gen);
      out->push_back(os.str());
    }
  }
}

// Stride passes and per-server virtual times never move backwards. A job's
// pass is compared only while it stays resident on the same server with no
// migration since the previous check (migration legitimately re-floors it).
void InvariantChecker::CheckPassMonotonicity(std::vector<std::string>* out) const {
  if (!has_baseline_) {
    return;
  }
  const ClusterStateIndex& index = sched_.cluster_index();
  const ResidencyIndex& residency = sched_.residency();
  for (const auto& server : env_.cluster.servers()) {
    const ServerId sid = server.id();
    const LocalStrideScheduler& stride = index.stride(sid);
    if (sid.value() < last_vt_.size() &&
        stride.VirtualTime() < last_vt_[sid.value()] - kPassEps) {
      out->push_back(Describe("virtual time moved backwards", JobId::Invalid(), sid));
    }
    for (JobId id : stride.ResidentJobs()) {
      if (id.value() >= last_pass_.size()) {
        continue;  // arrived since the previous check
      }
      const JobBaseline& prev = last_pass_[id.value()];
      if (prev.server != sid) {
        continue;  // migrated (or first seen) — new floor is legitimate
      }
      if (residency.Info(id).last_migration >= last_check_) {
        continue;  // round-trip migration within the window
      }
      if (stride.PassOf(id) < prev.pass - kPassEps) {
        out->push_back(Describe("stride pass moved backwards", id, sid));
      }
    }
  }
}

// Within each server's contiguous slice of the last delta, suspends precede
// resumes: the GPUs a resumed gang takes were freed in the same slice.
void InvariantChecker::CheckDeltaOrdering(std::vector<std::string>* out) const {
  ServerId current = ServerId::Invalid();
  bool seen_resume = false;
  for (const exec::ScheduleOp& op : sched_.last_delta().ops) {
    if (op.server != current) {
      current = op.server;
      seen_resume = false;
    }
    if (op.resume) {
      seen_resume = true;
    } else if (seen_resume) {
      out->push_back(
          Describe("suspend after resume in a server slice", op.job, op.server));
    }
  }
}

// The ledger never credits more GPU time than physically exists: summed over
// users, delivered GPU time in the window since the previous check is at
// most (total physical GPUs) x (elapsed wall time). Runs entirely in
// GpuSeconds — the unit layer's runtime enforcement companion to the
// compile-time checks in common/units.h.
void InvariantChecker::CheckGpuTimeConservation(std::vector<std::string>* out) const {
  if (!has_baseline_) {
    return;
  }
  const SimTime now = env_.sim.Now();
  if (now <= last_check_) {
    return;
  }
  const FairnessLedger& ledger = sched_.ledger();
  GpuSeconds delivered;
  for (UserId user : ledger.KnownUsers()) {
    delivered += ledger.GpuTime(user, last_check_, now);
  }
  const GpuSeconds capacity = GpuSeconds::FromMillis(
      static_cast<double>(env_.cluster.total_gpus()) *
      static_cast<double>(now - last_check_));
  // Per-segment accounting is exact integer-ms arithmetic widened to double;
  // leave only representation noise, scaled to the window.
  const GpuSeconds tolerance = GpuSeconds(1e-9) + capacity * 1e-12;
  if (delivered > capacity + tolerance) {
    std::ostringstream os;
    os << "ledger credited " << delivered << " GPU-seconds but capacity over the window is "
       << capacity;
    out->push_back(os.str());
  }
}

// Tickets are published per (user, pool) and derived on read (stride.h), and
// loads are cached behind explicit invalidation. Both must agree exactly
// with from-scratch recomputes: per resident, the facade's PerJobTickets;
// per server, a fresh ticket-load sum and the pool ordering's key.
void InvariantChecker::CheckTicketDerivation(std::vector<std::string>* out) const {
  const ClusterStateIndex& index = sched_.cluster_index();
  for (const auto& server : env_.cluster.servers()) {
    const ServerId sid = server.id();
    const LocalStrideScheduler& stride = index.stride(sid);
    for (JobId id : stride.ResidentJobs()) {
      const workload::Job& job = env_.jobs.Get(id);
      if (stride.TicketsOf(id) != sched_.PerJobTickets(job.user, server.generation(), job)) {
        out->push_back(Describe("resident tickets differ from the per-job split", id, sid));
      }
    }
    if (stride.TicketLoad() != stride.FreshTicketLoad()) {
      out->push_back(
          Describe("cached ticket load differs from a fresh sum", JobId::Invalid(), sid));
    }
  }
  for (cluster::GpuGeneration gen : cluster::kAllGenerations) {
    for (const auto& [key, sid] : index.pool_by_load(gen)) {
      if (key != index.NormTicketLoad(sid)) {
        out->push_back(Describe("pool ordering key differs from the server's load",
                                JobId::Invalid(), sid));
      }
    }
  }
}

// A down server holds no GPUs, hosts no stride residents, and is no
// non-migrating job's home (orphan handling detached everything).
void InvariantChecker::CheckDownServersHoldNothing(
    std::vector<std::string>* out) const {
  const ClusterStateIndex& index = sched_.cluster_index();
  for (const auto& server : env_.cluster.servers()) {
    if (server.up()) {
      continue;
    }
    const ServerId sid = server.id();
    if (server.num_busy() != 0) {
      out->push_back(Describe("down server holds GPUs", JobId::Invalid(), sid));
    }
    if (index.stride(sid).num_jobs() != 0) {
      out->push_back(
          Describe("down server has stride residents", JobId::Invalid(), sid));
    }
  }
  for (size_t i = 0; i < env_.jobs.size(); ++i) {
    const workload::Job& job = env_.jobs.Get(JobId(static_cast<uint32_t>(i)));
    if (job.finished() || !job.resident() ||
        job.state == workload::JobState::kMigrating) {
      continue;  // a migration target that died mid-flight bounces on landing
    }
    if (!env_.cluster.server(job.server).up()) {
      out->push_back(Describe("job resident on a down server", job.id, job.server));
    }
  }
}

}  // namespace gfair::sched
