// FairnessLedger — cluster-wide GPU-time accounting per user.
//
// The ledger is the measurement half of the fairness guarantee: it records
// how many GPU-milliseconds each user consumed on each generation, credited
// at the instants the executor books them (fed by its credit callback: one
// credit per pool at each sync point — every quantum tick — plus one per run
// segment as it closes), plus each user's outstanding GPU demand over time
// (fed by the scheduler on submit/finish). A window query therefore sees
// GPU time at quantum resolution. Experiments compare achieved GPU time
// against the ideal fair share computed from the demand series (see
// analysis/fairshare.h).
#ifndef GFAIR_SCHED_LEDGER_H_
#define GFAIR_SCHED_LEDGER_H_

#include <cstdint>
#include <vector>

#include "cluster/gpu.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "simkit/timeseries.h"

namespace gfair::sched {

class FairnessLedger {
 public:
  // --- recording ---

  // `user` consumed `gpu_ms` GPU-milliseconds on `gen`, booked at `time`.
  // Exact: the count is an integer, and the running totals stay integers
  // (below 2^53) however the credits are grouped.
  void CreditGpuMs(UserId user, cluster::GpuGeneration gen, SimTime time, int64_t gpu_ms);
  // `user` held `gpus` GPUs of `gen` over [start, end): a credit of
  // (end - start) x gpus at `end`.
  void RecordGpuTime(UserId user, cluster::GpuGeneration gen, SimTime start, SimTime end,
                     int gpus);

  // `user`'s outstanding demand on pool `gen` changed by `delta` GPUs at
  // `time` (+gang on becoming resident in the pool, -gang on finish/leave).
  void RecordDemandChange(UserId user, cluster::GpuGeneration gen, SimTime time, int delta);

  // --- queries ---

  // GPU-milliseconds `user` consumed on `gen` within [from, to). Raw double
  // on purpose: the ms-based series feed analysis/bench table math directly.
  double GpuMs(UserId user, cluster::GpuGeneration gen, SimTime from, SimTime to) const;  // gfair-lint: allow(raw-double-in-sched-api)
  // Across all generations.
  double GpuMs(UserId user, SimTime from, SimTime to) const;  // gfair-lint: allow(raw-double-in-sched-api)

  // Typed equivalents of the GpuMs queries, minted at the unit boundary —
  // what unit-space consumers (invariant checks) should use.
  GpuSeconds GpuTime(UserId user, cluster::GpuGeneration gen, SimTime from, SimTime to) const;
  GpuSeconds GpuTime(UserId user, SimTime from, SimTime to) const;

  // Piecewise-constant demand (in GPUs) of `user` on pool `gen`.
  const simkit::TimeSeries& DemandSeries(UserId user, cluster::GpuGeneration gen) const;
  // Current demand at `time`.
  double DemandAt(UserId user, cluster::GpuGeneration gen, SimTime time) const;
  // Summed over generations.
  double TotalDemandAt(UserId user, SimTime time) const;

  std::vector<UserId> KnownUsers() const;

 private:
  struct PerUser {
    cluster::PerGeneration<simkit::CounterSeries> gpu_ms;
    cluster::PerGeneration<simkit::TimeSeries> demand;
    cluster::PerGeneration<double> current_demand{};
  };

  PerUser& GetOrCreate(UserId user);
  const PerUser* Find(UserId user) const;

  // Indexed by user id (user ids are dense). `known_[u]` marks slots a
  // record was ever written to; credits run per pool every quantum and per
  // closing segment — hot path, so lookups must not hash. Do not hold the
  // GetOrCreate() reference across another GetOrCreate (it may resize).
  std::vector<PerUser> per_user_;
  std::vector<bool> known_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_LEDGER_H_
