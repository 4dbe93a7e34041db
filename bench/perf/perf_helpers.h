// The perfbench harness's self-contained logic: which simulated instants the
// measured window steps to and what each one holds, the percentile rule, and
// the decision-stream digest. Everything here is pure and unit-tested
// (helpers_test.cc); perfbench.cc wires it to a live Experiment.
#ifndef GFAIR_BENCH_PERF_PERF_HELPERS_H_
#define GFAIR_BENCH_PERF_PERF_HELPERS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/sim_time.h"
#include "sched/decision_log.h"
#include "sched/gandiva_fair.h"

namespace gfair::perfbench {

// The scheduler's periodic timers. A zero period means the timer never
// fires on this cluster.
struct Periods {
  SimDuration quantum = 0;
  SimDuration balance = 0;
  SimDuration trade = 0;
};

// Mirrors GandivaFairScheduler::Start: the balancer runs only when enabled on
// a multi-server cluster, the trade epoch only when enabled on a
// heterogeneous one. All timers start at time zero.
Periods PeriodsFor(const sched::GandivaFairConfig& config, const cluster::Cluster& cluster);

// What the scheduler does at one instant, for sampling. A trade instant that
// is also a balance instant counts as a trade instant: the epoch dominates.
enum class InstantKind : uint8_t {
  kAdmit,        // arrivals only, no timer
  kTickPlain,    // quantum tick alone
  kTickBalance,  // quantum tick plus balancer pass
  kTickTrade,    // quantum tick plus trade epoch
};

const char* InstantKindName(InstantKind kind);

struct Instant {
  SimTime time = 0;
  int arrivals = 0;  // submissions landing at `time`
  InstantKind kind = InstantKind::kAdmit;

  bool tick() const { return kind != InstantKind::kAdmit; }
};

// Every instant in (from, to] at which a timer fires or a job arrives,
// ascending, one entry per distinct millisecond. Arrivals that land on a tick
// are folded into the tick's instant (and never become admission samples).
// `arrivals` need not be sorted.
std::vector<Instant> BuildInstants(const Periods& periods, SimTime from, SimTime to,
                                   const std::vector<SimTime>& arrivals);

// The p-th percentile of `samples` (linear interpolation between ranks), or
// nothing when fewer than `min_beyond` samples lie beyond it: a tail read
// off a handful of points is noise, not a percentile.
std::optional<double> PercentileWithTail(const std::vector<double>& samples, double p,
                                         size_t min_beyond = 10);

// 64-bit FNV-1a digest of a scheduler's decision stream, folded step by step
// from the DecisionLog's ring. Every field of every decision goes in, so two
// runs with equal digests made the same decisions in the same order.
class DecisionDigest {
 public:
  // Folds the log's lifetime per-type counters and marks every decision
  // recorded so far as seen, for a prefix (the warm-up) whose entries may
  // have outrun the ring.
  void FoldCounts(const sched::DecisionLog& log);

  // Folds every decision recorded since the last fold. Returns false, and
  // folds nothing, when more were recorded than the ring retains: the
  // stream has a gap and the digest would silently skip it.
  [[nodiscard]] bool Fold(const sched::DecisionLog& log);

  uint64_t value() const { return hash_; }
  int64_t folded() const { return folded_; }

 private:
  void Mix(const void* bytes, size_t size);

  uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
  int64_t seen_ = 0;    // lifetime decisions of the log already accounted for
  int64_t folded_ = 0;  // decisions folded entry by entry
};

}  // namespace gfair::perfbench

#endif  // GFAIR_BENCH_PERF_PERF_HELPERS_H_
