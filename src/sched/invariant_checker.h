// InvariantChecker — cluster-wide invariants of the GandivaFair scheduler,
// checked as a unit after every quantum (Debug/sanitizer builds) and from
// the property/fuzz suites.
//
// The spot GFAIR_DCHECKs scattered through the subsystems each guard one
// local bookkeeping step; this checker asserts the END-TO-END properties the
// paper's claims rest on, across subsystem boundaries:
//
//   gang-residency      a resident job holds either its whole gang or
//                       nothing, on exactly its home server; every occupied
//                       GPU slot belongs to a running resident (all-or-
//                       nothing gang semantics, §time-slicing)
//   entitlement-conservation
//                       per pool, active users' entitlements are
//                       non-negative and sum to exactly the pool's UP
//                       capacity — trades redistribute GPUs, never mint or
//                       destroy them (§trading)
//   pass-monotonicity   stride passes and per-server virtual time never move
//                       backwards (re-entry/migration floors jump forward,
//                       never back) — the fairness accounting is monotone
//   delta-ordering      within each server's slice of a ScheduleDelta,
//                       suspends precede resumes, so a resumed gang's GPUs
//                       were freed in the same slice (§quantum pipeline)
//   down-holds-nothing  a down server holds no GPUs, hosts no stride
//                       residents, and is nobody's (non-migrating) home
//                       (§failure model)
//   gpu-time-conservation
//                       the ledger never credits more GPU time than the
//                       cluster physically has over the window
//   ticket-derivation   every resident job's tickets equal the per-job
//                       split recomputed from the ticket matrix and its
//                       user's pool demand, and every server's cached
//                       ticket load and pool-ordering key equal fresh
//                       recomputes — bit for bit (a stale published rate or
//                       a missed invalidation shows up here, in Release too)
//
// Invariants are REGISTERED in a static name → method table (Registry());
// Check() runs them all and returns human-readable violations instead of
// aborting, so property tests can assert emptiness and print the full list,
// while the facade's post-quantum debug hook turns any violation into a
// GFAIR_CHECK failure. The checker is stateful (pass-monotonicity compares
// against the previous check) but never mutates scheduler state — it reads
// through const references only.
#ifndef GFAIR_SCHED_INVARIANT_CHECKER_H_
#define GFAIR_SCHED_INVARIANT_CHECKER_H_

#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "sched/scheduler_iface.h"

namespace gfair::sched {

class GandivaFairScheduler;

class InvariantChecker {
 public:
  InvariantChecker(const SchedulerEnv& env, const GandivaFairScheduler& sched)
      : env_(env), sched_(sched) {}

  // Runs every registered invariant; returns one "name: detail" line per
  // violation (empty = all invariants hold). Also advances the
  // pass-monotonicity baseline to the current state.
  std::vector<std::string> Check();

  // Names of the registered invariants, in registration (check) order.
  static std::vector<std::string> RegisteredNames();

 private:
  using CheckFn = void (InvariantChecker::*)(std::vector<std::string>* out) const;
  struct Registration {
    const char* name;
    CheckFn fn;
  };
  static const std::vector<Registration>& Registry();

  void CheckGangResidency(std::vector<std::string>* out) const;
  void CheckEntitlementConservation(std::vector<std::string>* out) const;
  void CheckPassMonotonicity(std::vector<std::string>* out) const;
  void CheckDeltaOrdering(std::vector<std::string>* out) const;
  void CheckDownServersHoldNothing(std::vector<std::string>* out) const;
  void CheckGpuTimeConservation(std::vector<std::string>* out) const;
  void CheckTicketDerivation(std::vector<std::string>* out) const;

  const SchedulerEnv& env_;
  const GandivaFairScheduler& sched_;

  // --- pass-monotonicity baseline (previous Check() call) ---
  struct JobBaseline {
    ServerId server = ServerId::Invalid();
    Pass pass;
  };
  std::vector<JobBaseline> last_pass_;  // indexed by job id
  std::vector<Pass> last_vt_;           // indexed by server id
  SimTime last_check_ = kTimeZero;
  bool has_baseline_ = false;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_INVARIANT_CHECKER_H_
