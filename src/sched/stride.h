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
// Selection order comes from an incrementally maintained min-heap keyed on
// (pass, gang tie-break, id) instead of a per-quantum sort of every resident
// job. The heap uses lazy re-keying: Charge only bumps the entry's pass (the
// hot path touches no heap memory); a heap item whose stored pass no longer
// matches is re-pushed with the current pass when it surfaces at the top.
// Because passes only ever increase, a stored key is always a lower bound on
// the true key, so the first top whose stored pass is current is the true
// minimum — extraction order is bit-identical to sorting by the same
// (pass, tie) total order, which is strict (ids are unique). Removal and
// runnable toggles invalidate items by bumping a per-job generation stamp;
// tombstones are dropped at pop time and the heap is rebuilt when they
// outnumber live entries. Cost per quantum is O(k log n) for k charged +
// selected jobs rather than O(n log n) for n residents.
//
// Tickets are derived, not stored. Each entry holds its share (gang x
// weight) and a pointer to a TicketRate — its user's published per-pool
// {pool_tickets, pool_demand} — and reads its tickets as
// pool_tickets * share / max(pool_demand, share), the split-stride per-job
// formula. Re-pricing a user's pool is therefore one rate write by the owner
// plus an InvalidateTicketLoad() on each hosting server, instead of a
// per-job SetTickets. Callers with explicit per-job tickets (tests, the
// frozen oracle, microbenchmarks) use AddJob/SetTickets with a Tickets
// value: the entry then reads a rate {t, 1} owned by this scheduler on its
// behalf with share 1, which reproduces t exactly — one read path for both.
//
// Aggregates (ticket load, demand load, the sorted resident set) are cached:
// they are invalidated by the membership/ticket mutations (and by the rate
// owner's InvalidateTicketLoad) and recomputed at most once per mutation
// instead of on every read. Charging a quantum — which reads TicketLoad()
// once per charged job — is therefore O(jobs) per server instead of
// O(jobs²). The recompute walks `entries_` in container order — insertion
// order, stable across platforms — so cached reads are bit-identical to
// uncached ones. A missed invalidation (a rate changed without its hosting
// servers being told) would leave the cache stale; the InvariantChecker's
// ticket-derivation check compares every cached load with a fresh sum.
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
#include <utility>
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
  // virtual time. `rate` must outlive the residency; whoever rewrites it
  // must call InvalidateTicketLoad() on every scheduler hosting one of its
  // jobs.
  void AddJob(JobId id, int gang_size, double share,  // gfair-lint: allow(raw-double-in-sched-api) -- share is gang x weight, not a unit quantity
              const TicketRate* rate);
  // Registers a resident job holding exactly `tickets` (an owned rate
  // {tickets, 1} at share 1).
  void AddJob(JobId id, int gang_size, Tickets tickets);

  // Unregisters a job (finished or migrated away).
  void RemoveJob(JobId id);

  // Pins a job to exactly `tickets` from now on (owned rate, share 1).
  // Tickets do not enter the selection key, so the heap needs no rebuild.
  void SetTickets(JobId id, Tickets tickets);

  // A published rate read by resident entries changed: drop the cached
  // ticket load. O(1); nothing else depends on tickets.
  void InvalidateTicketLoad() { ticket_load_dirty_ = true; }

  // Marks a job (not) selectable without unregistering it.
  void SetRunnable(JobId id, bool runnable);

  bool Contains(JobId id) const { return FindEntry(id) != entries_.end(); }
  size_t num_jobs() const { return entries_.size(); }
  int num_gpus() const { return num_gpus_; }

  // Sum of tickets over resident runnable jobs — the server's "ticket load"
  // used by placement and the load balancer. O(1) amortized (cached; see
  // file comment). Inline: read once per charged job per quantum.
  Tickets TicketLoad() const {
    if (ticket_load_dirty_) {
      RecomputeTicketLoad();
    }
    return ticket_load_cache_;
  }
  // The same sum recomputed from the entries, bypassing the cache — what
  // TicketLoad() must equal bit for bit (the ticket-derivation invariant).
  [[nodiscard]] Tickets FreshTicketLoad() const;

  // Total GPUs demanded by resident runnable jobs. O(1) (maintained
  // incrementally; integer arithmetic, so exact).
  int DemandLoad() const;

  // --- quantum planning (pure) vs commit (state change) ---
  //
  // PlanQuantum computes the set of jobs that should hold GPUs for the next
  // quantum without changing scheduler state: logically const (the lazy heap
  // re-keying it performs is cache maintenance, not behavior). It also
  // reports the minimum pass over runnable jobs (+inf when none), which the
  // caller feeds back through AdvanceVirtualTime — the same virtual-time
  // floor update the legacy combined call performed. Splitting the two is
  // what lets a pure planner run over a read-only snapshot and commit later.
  //
  // `out` is overwritten, in selection order.
  void PlanQuantum(std::vector<JobId>* out, Pass* min_runnable_pass) const;
  // Floors the virtual time at `min_runnable_pass` (no-op for +inf).
  void AdvanceVirtualTime(Pass min_runnable_pass);
  // Minimum pass over runnable residents, +inf when none. O(stale heap tops).
  [[nodiscard]] Pass MinRunnablePass() const;
  // Same value via one contiguous scan of the entries, leaving the heap
  // alone. Cheaper than the heap peek exactly when most keys are stale —
  // e.g. on a dirty-skip'd server, where every resident was just charged and
  // the entry array is still cache-hot from the charge walk.
  [[nodiscard]] Pass MinRunnablePassScan() const {
    Pass min_pass = Pass::Infinity();
    for (const auto& [id, entry] : entries_) {
      if (entry.runnable && entry.pass < min_pass) {
        min_pass = entry.pass;
      }
    }
    return min_pass;
  }

  // The set of jobs that should hold GPUs for the next quantum; advances the
  // virtual time as a side effect (PlanQuantum + AdvanceVirtualTime).
  // Returns a reference to an internal buffer that the next call on this
  // instance overwrites — copy it to hold across calls.
  [[nodiscard]] const std::vector<JobId>& SelectForQuantum();

  // Charges `ms` of wall time on the job's whole gang. Touches no heap
  // memory — the stale key is lazily re-pushed at the next selection.
  void Charge(JobId id, SimDuration ms) {
    auto it = FindEntry(id);
    GFAIR_CHECK_MSG(it != entries_.end(), "Charge on unknown job");
    ChargeAt(static_cast<uint32_t>(it - entries_.begin()), ms);
  }
  // Charge for the entry at `pos`, a position from ResidentPositions():
  // the per-quantum charge walk's entry point, which spares the id lookup
  // (index_of_ is indexed by job id, so each lookup is a scattered load).
  void ChargeAt(uint32_t pos, SimDuration ms) {
    GFAIR_CHECK(ms >= 0);
    GFAIR_DCHECK(pos < entries_.size());
    Entry& entry = entries_[pos].second;
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
  // Whether the job is currently selectable (see SetRunnable). Precondition:
  // resident here.
  bool RunnableOf(JobId id) const;
  Pass VirtualTime() const { return virtual_time_; }

  // Resident jobs sorted by id. Returns a reference to a cached vector that
  // is invalidated by AddJob/RemoveJob — callers that migrate or remove jobs
  // while iterating must take a copy first.
  [[nodiscard]] const std::vector<JobId>& ResidentJobs() const;
  // The entry positions of ResidentJobs(), element for element (ChargeAt's
  // argument). Cached and invalidated with it.
  [[nodiscard]] const std::vector<uint32_t>& ResidentPositions() const;

 private:
  struct Entry {
    int gang_size;
    bool runnable;
    double share;             // gang x weight (1 for explicit tickets)
    const TicketRate* rate;   // published pool rate, or owned_rates_[id]
    Pass pass;

    Tickets tickets() const { return rate->TicketsFor(share); }
  };
  using EntryList = std::vector<std::pair<JobId, Entry>>;

  // One selection-heap item. `tie` packs the (gang, id) tie-break into one
  // integer — gang key in the high half (inverted when big_job_first so
  // bigger gangs order first), id in the low half — so the heap comparator
  // is two flat compares instead of a three-level branch chain. `gen` stamps
  // the item against heap_gen_: a mismatch marks a tombstone (job removed or
  // runnable-toggled since the push).
  struct HeapItem {
    Pass pass;
    uint64_t tie;
    uint32_t gen;
  };
  // "a comes after b" in the min-(pass, tie) order. A functor, not a free
  // function: the sift loops run a few million times per simulated hour and a
  // function-pointer comparator would block inlining the two compares.
  struct HeapItemAfter {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.pass != b.pass) {
        return a.pass > b.pass;
      }
      return a.tie > b.tie;
    }
  };

  // O(1) via index_of_; Charge/SetRunnable/SetTickets run per job per
  // quantum, so lookups must not scan.
  EntryList::iterator FindEntry(JobId id) {
    if (id.valid() && id.value() < index_of_.size() && index_of_[id.value()] != 0) {
      return entries_.begin() + (index_of_[id.value()] - 1);
    }
    return entries_.end();
  }
  EntryList::const_iterator FindEntry(JobId id) const {
    if (id.valid() && id.value() < index_of_.size() && index_of_[id.value()] != 0) {
      return entries_.begin() + (index_of_[id.value()] - 1);
    }
    return entries_.end();
  }

  const Entry& GetEntry(JobId id) const;
  void UpdateVirtualTime();
  // A membership or ticket mutation changed the aggregates.
  void InvalidateAggregates(bool membership_changed);
  void RecomputeTicketLoad() const;
  // The owned rate backing an explicit-ticket entry, set to {tickets, 1}.
  const TicketRate* OwnRate(JobId id, Tickets tickets);

  // --- selection heap (see file comment) ---
  uint64_t TieOf(JobId id, int gang_size) const {
    const uint64_t gang_key =
        config_.big_job_first
            ? ~static_cast<uint64_t>(static_cast<uint32_t>(gang_size))
            : static_cast<uint64_t>(static_cast<uint32_t>(gang_size));
    return (gang_key << 32) | id.value();
  }
  // Hand-rolled sift primitives (std::push_heap/pop_heap cannot express the
  // one-sided re-key FixHeapTop needs: a grown root key only ever sifts down).
  void HeapSiftUp(size_t pos) const;
  void HeapSiftDown(size_t pos) const;
  // Removes the top item (replace with last, sift down).
  void HeapPopTop() const;
  // Pushes a live heap item for `id` with its current pass. The caller must
  // have bumped heap_gen_[id] if the previous item has to die.
  void HeapPushJob(JobId id, const Entry& entry) const;
  // Invalidates any live heap item for `id` (tombstone).
  void HeapInvalidate(JobId id) {
    heap_gen_[id.value()] += 1;
    MaybeCompactHeap();
  }
  // Drops tombstones and re-keys stale items until the top is live and
  // current (the true minimum), or the heap is empty. Logically const.
  void FixHeapTop() const;
  // Small-n selection: sort the runnable entries outright (see
  // kSortSelectMaxJobs in stride.cc); leaves the heap untouched.
  void SelectBySort(std::vector<JobId>* out, Pass* min_runnable_pass) const;
  void MaybeCompactHeap() const;
  void RebuildHeap() const;

  int num_gpus_;
  StrideConfig config_;
  EntryList entries_;
  // Dense job-id → position+1 in entries_ (0 = absent); sized by the largest
  // job id ever resident here. Kept in sync by AddJob/RemoveJob.
  std::vector<uint32_t> index_of_;
  // Dense job-id → generation stamp for heap items (see HeapItem::gen).
  std::vector<uint32_t> heap_gen_;
  // Monotone floor for newcomer passes; tracks min runnable pass.
  Pass virtual_time_;

  // Min-heap over live runnable entries, ordered by (pass, tie). Invariant:
  // every runnable entry has exactly one live item (gen matches); its stored
  // pass is a lower bound on the entry's current pass. Mutable: re-keying
  // and tombstone removal are cache maintenance performed inside const
  // planning.
  mutable std::vector<HeapItem> heap_;
  mutable std::vector<HeapItem> popped_scratch_;  // PlanQuantum re-push buffer

  // Rates of explicit-ticket entries, owned here on the entry's behalf and
  // erased with it. Node-based, so entry pointers survive rehashing; never
  // iterated. Empty for schedulers whose jobs are all rate-priced.
  std::unordered_map<JobId, TicketRate> owned_rates_;

  // --- cached aggregates ---
  // Authoritative ticket load: lazily recomputed in entries_ order so the
  // value matches an uncached recompute bit-for-bit.
  mutable Tickets ticket_load_cache_;
  mutable bool ticket_load_dirty_ = false;  // empty scheduler sums to 0
  // Runnable demand is a sum of small ints — incremental updates are exact.
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
