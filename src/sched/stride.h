// LocalStrideScheduler — gang-aware stride scheduling for one server.
//
// Classic stride scheduling generalized to GPU gangs, following the paper's
// split-stride design: the central scheduler decides which jobs are resident
// on a server; this local scheduler decides, each quantum, which resident
// jobs hold the server's GPUs.
//
//  * Each job has `tickets`; its pass advances by gang_size * Δt / tickets
//    while it runs, so a k-GPU gang is charged k times faster — GPU-time (not
//    wall-time) ends up proportional to tickets.
//  * Selection each quantum walks jobs in increasing pass order and packs
//    them onto the GPUs, skipping (backfilling past) jobs that do not fit
//    the remaining capacity. Because every GPU is reassignable at a quantum
//    boundary, a waiting gang whose pass is strictly minimal always fits and
//    runs — the fairness guarantee needs no reservation here.
//  * Two gang-awareness knobs (both on for Gandiva_fair, both off for the
//    "plain stride" baseline):
//      - big_job_first: at equal pass, larger gangs are placed first. New
//        jobs enter at the virtual time, i.e. exactly tied with the
//        longest-waiting job — under a stream of small arrivals, small-first
//        tie-breaking starves a big gang forever (experiment E3);
//      - reserve_blocked_gang: consumed by the facade's mid-quantum
//        work-conservation path, where GPUs free up incrementally as jobs
//        finish: stop backfilling behind a blocked head gang so its GPUs can
//        accumulate instead of being nibbled away by later jobs.
//  * New jobs start at the scheduler's virtual time (the minimum pass of
//    resident jobs) so they neither owe history nor get free credit.
//
// Selection sorts the entries by (pass, gang tie-break, id) and walks them
// in that order. The order is strict (ids are unique), so the result does
// not depend on the entries' container order. A server hosts tens of jobs,
// so one sort of a few cache lines per planned quantum costs less than any
// incrementally maintained order would cost its AddJob, RemoveJob and Charge
// calls.
//
// Tickets are derived, not stored. Each entry holds its share (gang x
// weight) and a pointer to a TicketRate — its user's published per-pool
// {pool_tickets, pool_demand} — and reads its tickets as
// pool_tickets * share / max(pool_demand, share), the split-stride per-job
// formula. Re-pricing a user's pool is therefore one rate write by the owner
// plus one ClusterStateIndex::RepriceTicketLoad (which calls
// InvalidateTicketLoad()) per hosting server, instead of a per-job
// SetTickets. Callers with explicit per-job tickets (tests, the
// frozen oracle, microbenchmarks) use AddJob/SetTickets with a Tickets
// value: the entry then reads a rate {t, 1} owned by this scheduler on its
// behalf with share 1, which reproduces t exactly — one read path for both.
//
// Aggregates (ticket load, demand load, the sorted resident set and its
// entry positions) are cached: they are invalidated by the membership/ticket
// mutations (and by the rate owner's re-pricing) and recomputed at most once
// per mutation instead of on every read. Charging a quantum — which reads
// TicketLoad() once per charged job — is therefore O(jobs) per server
// instead of O(jobs²). The recompute walks `entries_` in container order —
// insertion order, stable across platforms — so cached reads are
// bit-identical to uncached ones. This cache is the only exact ticket load:
// the ClusterStateIndex keeps certified bounds around it per server
// (load_bound.h), reads CachedTicketLoad() to restart them from an exact
// value, and re-sums through TicketLoad() only the servers its load queries
// cannot rule out. A missed invalidation (a rate changed without its hosting
// servers being told) would leave the cache stale; the InvariantChecker's
// ticket-derivation check compares every clean cached load with a fresh sum
// and every fresh sum with the index's bounds.
//
// Each entry also carries the instant its job was last charged through. The
// quantum's charge walk (ChargeThrough) therefore reads nothing but this
// server's entries and its cached ticket load; the facade moves the instant
// at each resume and carries it across residencies (seeded at AddJob, read
// back before RemoveJob).
//
// Entries live in a flat insertion-ordered vector rather than a hash map:
// per-server job counts are small (tens), so a linear scan over contiguous
// memory beats hashing on every lookup, and iteration (selection, the
// aggregate recomputes) is a cache-line walk. This container is on the
// cluster-wide per-quantum hot path.
#ifndef GFAIR_SCHED_STRIDE_H_
#define GFAIR_SCHED_STRIDE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "common/types.h"

namespace gfair::sched {

struct StrideConfig {
  bool big_job_first = true;
  bool reserve_blocked_gang = true;
};

// A user's tickets on one pool, published once per (user, generation) and
// read by every resident entry of that user's pool jobs (see file comment).
// `pool_demand` is the user's weighted resident demand on the pool (sum of
// gang x weight): a weighted GPU count, dimensionless like the shares it
// sums, so it stays a double.
struct TicketRate {
  Tickets pool_tickets = 1.0;
  double pool_demand = 1.0;

  // The tickets of an entry holding `share` (gang x weight, a weighted GPU
  // count) — evaluated as (T * s) / max(D, s), the historical order.
  Tickets TicketsFor(double share) const {  // gfair-lint: allow(raw-double-in-sched-api) -- share is gang x weight, not a unit quantity
    return pool_tickets * share / std::max(pool_demand, share);
  }
};

class LocalStrideScheduler {
 public:
  explicit LocalStrideScheduler(int num_gpus, StrideConfig config = {});
  // Entries point into owned_rates_ nodes: a copy would alias them.
  LocalStrideScheduler(const LocalStrideScheduler&) = delete;
  LocalStrideScheduler& operator=(const LocalStrideScheduler&) = delete;
  LocalStrideScheduler(LocalStrideScheduler&&) = default;
  LocalStrideScheduler& operator=(LocalStrideScheduler&&) = default;

  // Registers a resident job priced by a published rate: its tickets are
  // rate->TicketsFor(share) on every read. Its pass starts at the current
  // virtual time, and it counts as charged through `last_charge` (the
  // instant a previous residency left off; see ChargeThrough). `rate` must
  // outlive the residency; whoever rewrites it must call
  // InvalidateTicketLoad() on every scheduler hosting one of its jobs.
  void AddJob(JobId id, int gang_size, double share,  // gfair-lint: allow(raw-double-in-sched-api) -- share is gang x weight, not a unit quantity
              const TicketRate* rate, SimTime last_charge = kTimeZero);
  // Registers a resident job holding exactly `tickets` (an owned rate
  // {tickets, 1} at share 1), charged through time zero.
  void AddJob(JobId id, int gang_size, Tickets tickets);

  // Unregisters a job (finished or migrated away).
  void RemoveJob(JobId id);

  // Pins a job to exactly `tickets` from now on (owned rate, share 1).
  // Tickets do not enter the selection key.
  void SetTickets(JobId id, Tickets tickets);

  // A published rate read by resident entries changed: drop the cached
  // ticket load. O(1); nothing else depends on tickets.
  void InvalidateTicketLoad() { ticket_load_dirty_ = true; }

  bool Contains(JobId id) const { return FindEntry(id) != entries_.end(); }
  size_t num_jobs() const { return entries_.size(); }
  int num_gpus() const { return num_gpus_; }

  // Sum of tickets over resident jobs — the server's "ticket load" used by
  // placement and the load balancer. O(1) amortized (cached; see file
  // comment). Inline: read once per charged job per quantum.
  Tickets TicketLoad() const {
    if (ticket_load_dirty_) {
      RecomputeTicketLoad();
    }
    return ticket_load_cache_;
  }
  // The same sum recomputed from the entries, bypassing the cache — what
  // TicketLoad() must equal bit for bit (the ticket-derivation invariant).
  [[nodiscard]] Tickets FreshTicketLoad() const;
  // The cached load when it is current, null when the next TicketLoad()
  // would re-sum. Reads without re-summing.
  const Tickets* CachedTicketLoad() const {
    return ticket_load_dirty_ ? nullptr : &ticket_load_cache_;
  }

  // Total GPUs demanded by resident jobs. O(1) (maintained incrementally;
  // integer arithmetic, so exact).
  int DemandLoad() const;

  // --- quantum planning (pure) vs commit (state change) ---
  //
  // PlanQuantum computes the set of jobs that should hold GPUs for the next
  // quantum without changing scheduler state (it writes only its sort
  // scratch). It also reports the minimum pass over resident jobs (+inf when
  // none), which the caller feeds back through AdvanceVirtualTime — the same
  // virtual-time floor update the legacy combined call performed. Splitting
  // the two is what lets a pure planner run over a read-only snapshot and
  // commit later.
  //
  // `out` is overwritten, in selection order.
  void PlanQuantum(std::vector<JobId>* out, Pass* min_runnable_pass) const;
  // Floors the virtual time at `min_runnable_pass` (no-op for +inf).
  void AdvanceVirtualTime(Pass min_runnable_pass);
  // Minimum pass over residents, +inf when none: one contiguous scan of the
  // entries.
  [[nodiscard]] Pass MinRunnablePass() const {
    Pass min_pass = Pass::Infinity();
    for (const Entry& entry : entries_) {
      min_pass = std::min(min_pass, entry.pass);
    }
    return min_pass;
  }

  // The set of jobs that should hold GPUs for the next quantum; advances the
  // virtual time as a side effect (PlanQuantum + AdvanceVirtualTime).
  // Returns a reference to an internal buffer that the next call on this
  // instance overwrites — copy it to hold across calls.
  [[nodiscard]] const std::vector<JobId>& SelectForQuantum();

  // Charges `ms` of wall time on the job's whole gang. Leaves the entry's
  // charged-through instant alone.
  void Charge(JobId id, SimDuration ms) {
    auto it = FindEntry(id);
    GFAIR_CHECK_MSG(it != entries_.end(), "Charge on unknown job");
    ChargeAt(static_cast<uint32_t>(it - entries_.begin()), ms);
  }
  // The per-quantum charge of a running job, by its entry position `pos`
  // (from ResidentPositions(), which spares the id lookup): charges the time
  // since the entry was last charged through, then moves that instant to
  // `now`. Reads only the entry and this scheduler's cached ticket load.
  void ChargeThrough(uint32_t pos, SimTime now) {
    GFAIR_DCHECK(pos < entries_.size());
    Entry& entry = entries_[pos];
    const SimDuration ms = now - entry.last_charge;
    entry.last_charge = now;
    ChargeAt(pos, ms);
  }
  // Charge's arithmetic for the entry at `pos`, a position from
  // ResidentPositions().
  void ChargeAt(uint32_t pos, SimDuration ms) {
    GFAIR_CHECK(ms >= 0);
    GFAIR_DCHECK(pos < entries_.size());
    Entry& entry = entries_[pos];
    entry.pass += Stride::FromService(static_cast<double>(ms), entry.gang_size, entry.tickets());
    // Virtual time advances with delivered service per runnable ticket. This —
    // not the min-pass floor — is what keeps newcomers from perpetually
    // entering below a waiting job's frozen pass under high churn: short jobs
    // arriving and finishing every quantum would otherwise pin the virtual
    // time while an already-served long job waits forever.
    const Tickets load = TicketLoad();
    if (load > 0.0) {
      virtual_time_ += Stride::FromService(static_cast<double>(ms), entry.gang_size, load);
    }
  }

  Pass PassOf(JobId id) const;
  int GangOf(JobId id) const;
  Tickets TicketsOf(JobId id) const;
  Pass VirtualTime() const { return virtual_time_; }
  // The instant the job's entry is charged through: the next ChargeThrough
  // charges from here.
  SimTime ChargedThrough(JobId id) const { return GetEntry(id).last_charge; }
  // The job (re)starts running at `now`: nothing before it is owed.
  void SetChargedThrough(JobId id, SimTime now);

  // Resident jobs sorted by id. Returns a reference to a cached vector that
  // is invalidated by AddJob/RemoveJob — callers that migrate or remove jobs
  // while iterating must take a copy first.
  [[nodiscard]] const std::vector<JobId>& ResidentJobs() const;
  // The entry positions of ResidentJobs(), element for element (the
  // argument of ChargeThrough and ChargeAt). Cached and invalidated with it.
  [[nodiscard]] const std::vector<uint32_t>& ResidentPositions() const;

 private:
  // One resident job, 40 bytes: the id and the gang share one 8-byte word,
  // which keeps the walks over entries (charge, ticket-load re-sums,
  // selection) to as few cache lines as the fields allow.
  struct Entry {
    JobId id;
    int gang_size;
    double share;             // gang x weight (1 for explicit tickets)
    const TicketRate* rate;   // published pool rate, or owned_rates_[id]
    Pass pass;
    SimTime last_charge;      // charged through this instant

    Tickets tickets() const { return rate->TicketsFor(share); }
  };
  using EntryList = std::vector<Entry>;

  // Linear: a server hosts tens of jobs (see file comment).
  EntryList::iterator FindEntry(JobId id) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [id](const Entry& e) { return e.id == id; });
  }
  EntryList::const_iterator FindEntry(JobId id) const {
    return std::find_if(entries_.begin(), entries_.end(),
                        [id](const Entry& e) { return e.id == id; });
  }

  const Entry& GetEntry(JobId id) const;
  // A membership or ticket mutation changed the aggregates.
  void InvalidateAggregates(bool membership_changed);
  void RecomputeTicketLoad() const;
  // The owned rate backing an explicit-ticket entry, set to {tickets, 1}.
  const TicketRate* OwnRate(JobId id, Tickets tickets);

  // One selection candidate. `tie` packs the (gang, id) tie-break into one
  // integer — gang key in the high half (inverted when big_job_first so
  // bigger gangs order first), id in the low half — so the sort comparator
  // is two flat compares instead of a three-level branch chain.
  struct Candidate {
    Pass pass;
    uint64_t tie;
  };
  uint64_t TieOf(JobId id, int gang_size) const {
    const uint64_t gang_key =
        config_.big_job_first
            ? ~static_cast<uint64_t>(static_cast<uint32_t>(gang_size))
            : static_cast<uint64_t>(static_cast<uint32_t>(gang_size));
    return (gang_key << 32) | id.value();
  }

  int num_gpus_;
  StrideConfig config_;
  EntryList entries_;
  // Monotone floor for newcomer passes; tracks min runnable pass.
  Pass virtual_time_;
  mutable std::vector<Candidate> candidates_scratch_;  // PlanQuantum's sort

  // Rates of explicit-ticket entries, owned here on the entry's behalf and
  // erased with it. Node-based, so entry pointers survive rehashing; never
  // iterated. Empty for schedulers whose jobs are all rate-priced.
  std::unordered_map<JobId, TicketRate> owned_rates_;

  // --- cached aggregates ---
  // Authoritative ticket load: lazily recomputed in entries_ order so the
  // value matches an uncached recompute bit-for-bit.
  mutable Tickets ticket_load_cache_;
  mutable bool ticket_load_dirty_ = false;  // empty scheduler sums to 0
  // Demand is a sum of small ints — incremental updates are exact.
  int demand_load_ = 0;
  mutable std::vector<JobId> resident_cache_;
  mutable bool resident_dirty_ = false;
  mutable std::vector<uint32_t> resident_pos_cache_;  // entry positions, same order
  mutable bool positions_dirty_ = false;

  // Selection scratch (reused across SelectForQuantum calls).
  std::vector<JobId> selected_scratch_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_STRIDE_H_
