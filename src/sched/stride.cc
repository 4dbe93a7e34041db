#include "sched/stride.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gfair::sched {

namespace {
constexpr Pass kInf = Pass::Infinity();
}  // namespace

LocalStrideScheduler::LocalStrideScheduler(int num_gpus, StrideConfig config)
    : num_gpus_(num_gpus), config_(config) {
  GFAIR_CHECK(num_gpus_ > 0);
}

void LocalStrideScheduler::InvalidateAggregates(bool membership_changed) {
  ticket_load_dirty_ = true;
  if (membership_changed) {
    resident_dirty_ = true;
  }
}

void LocalStrideScheduler::AddJob(JobId id, int gang_size, double share,
                                  const TicketRate* rate) {
  GFAIR_CHECK(id.valid());
  GFAIR_CHECK_MSG(gang_size >= 1 && gang_size <= num_gpus_, "gang cannot fit this server");
  GFAIR_CHECK(rate != nullptr && share > 0.0 && rate->pool_tickets > 0.0);
  GFAIR_CHECK_MSG(FindEntry(id) == entries_.end(), "job already resident");
  entries_.emplace_back(id, Entry{gang_size, true, share, rate, virtual_time_});
  if (id.value() >= index_of_.size()) {
    index_of_.resize(id.value() + 1, 0);
    heap_gen_.resize(id.value() + 1, 0);
  }
  index_of_[id.value()] = static_cast<uint32_t>(entries_.size());
  demand_load_ += gang_size;
  InvalidateAggregates(/*membership_changed=*/true);
  // No generation bump needed: a previous residency's items (if any) died at
  // its RemoveJob, so no live item carries the current generation.
  HeapPushJob(id, entries_.back().second);
}

void LocalStrideScheduler::AddJob(JobId id, int gang_size, Tickets tickets) {
  AddJob(id, gang_size, /*share=*/1.0, OwnRate(id, tickets));
}

const TicketRate* LocalStrideScheduler::OwnRate(JobId id, Tickets tickets) {
  TicketRate& rate = owned_rates_[id];
  // share 1 against demand 1: (t * 1) / max(1, 1) == t exactly.
  rate = TicketRate{tickets, 1.0};
  return &rate;
}

void LocalStrideScheduler::RemoveJob(JobId id) {
  auto it = FindEntry(id);
  GFAIR_CHECK_MSG(it != entries_.end(), "RemoveJob on unknown job");
  if (it->second.runnable) {
    demand_load_ -= it->second.gang_size;
  }
  if (!owned_rates_.empty()) {
    owned_rates_.erase(id);
  }
  const size_t pos = static_cast<size_t>(it - entries_.begin());
  entries_.erase(it);
  index_of_[id.value()] = 0;
  for (size_t i = pos; i < entries_.size(); ++i) {
    index_of_[entries_[i].first.value()] = static_cast<uint32_t>(i + 1);
  }
  InvalidateAggregates(/*membership_changed=*/true);
  HeapInvalidate(id);
  UpdateVirtualTime();
}

void LocalStrideScheduler::SetTickets(JobId id, Tickets tickets) {
  GFAIR_CHECK(tickets > 0.0);
  auto it = FindEntry(id);
  GFAIR_CHECK(it != entries_.end());
  it->second.share = 1.0;
  it->second.rate = OwnRate(id, tickets);
  InvalidateAggregates(/*membership_changed=*/false);
}

void LocalStrideScheduler::SetRunnable(JobId id, bool runnable) {
  auto it = FindEntry(id);
  GFAIR_CHECK(it != entries_.end());
  const bool was_runnable = it->second.runnable;
  if (was_runnable != runnable) {
    demand_load_ += (runnable ? 1 : -1) * it->second.gang_size;
    InvalidateAggregates(/*membership_changed=*/false);
  }
  it->second.runnable = runnable;
  if (runnable) {
    // Re-entering jobs (e.g. back from a probe) must not have fallen behind
    // the pack — that would give them a monopolizing credit. (Raising the
    // pass of an already-runnable job leaves its heap item stale-low, which
    // the lazy re-key repairs at the next selection.)
    it->second.pass = std::max(it->second.pass, virtual_time_);
    if (!was_runnable) {
      // The runnable→false transition bumped the generation, so no live item
      // carries the current one — push without another bump.
      HeapPushJob(id, it->second);
    }
  } else if (was_runnable) {
    HeapInvalidate(id);
  }
}

const LocalStrideScheduler::Entry& LocalStrideScheduler::GetEntry(JobId id) const {
  auto it = FindEntry(id);
  GFAIR_CHECK_MSG(it != entries_.end(), "unknown job");
  return it->second;
}

Pass LocalStrideScheduler::PassOf(JobId id) const { return GetEntry(id).pass; }
int LocalStrideScheduler::GangOf(JobId id) const { return GetEntry(id).gang_size; }
Tickets LocalStrideScheduler::TicketsOf(JobId id) const { return GetEntry(id).tickets(); }
bool LocalStrideScheduler::RunnableOf(JobId id) const { return GetEntry(id).runnable; }

Tickets LocalStrideScheduler::FreshTicketLoad() const {
  Tickets total = 0.0;
  for (const auto& [id, entry] : entries_) {
    if (entry.runnable) {
      total += entry.tickets();
    }
  }
  return total;
}

void LocalStrideScheduler::RecomputeTicketLoad() const {
  ticket_load_cache_ = FreshTicketLoad();
  ticket_load_dirty_ = false;
}

int LocalStrideScheduler::DemandLoad() const {
#ifndef NDEBUG
  int total = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.runnable) {
      total += entry.gang_size;
    }
  }
  GFAIR_DCHECK_MSG(total == demand_load_,
                   "incremental demand-load sum drifted from full recompute");
#endif
  return demand_load_;
}

const std::vector<JobId>& LocalStrideScheduler::ResidentJobs() const {
  if (resident_dirty_) {
    resident_cache_.clear();
    resident_cache_.reserve(entries_.size());
    for (const auto& [id, entry] : entries_) {
      resident_cache_.push_back(id);
    }
    std::sort(resident_cache_.begin(), resident_cache_.end());
    resident_dirty_ = false;
    positions_dirty_ = true;
  }
  return resident_cache_;
}

const std::vector<uint32_t>& LocalStrideScheduler::ResidentPositions() const {
  const std::vector<JobId>& resident = ResidentJobs();
  // Built on demand: only the charge walk reads positions, so the other
  // ResidentJobs() readers (stealing, balancing) never pay for them.
  if (positions_dirty_) {
    resident_pos_cache_.clear();
    resident_pos_cache_.reserve(resident.size());
    for (JobId id : resident) {
      resident_pos_cache_.push_back(index_of_[id.value()] - 1);
    }
    positions_dirty_ = false;
  }
  return resident_pos_cache_;
}

void LocalStrideScheduler::HeapSiftUp(size_t pos) const {
  const HeapItem item = heap_[pos];
  const HeapItemAfter after;
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!after(heap_[parent], item)) {
      break;
    }
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = item;
}

void LocalStrideScheduler::HeapSiftDown(size_t pos) const {
  const size_t n = heap_.size();
  const HeapItem item = heap_[pos];
  const HeapItemAfter after;
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && after(heap_[child], heap_[child + 1])) {
      child += 1;
    }
    if (!after(item, heap_[child])) {
      break;
    }
    heap_[pos] = heap_[child];
    pos = child;
  }
  heap_[pos] = item;
}

void LocalStrideScheduler::HeapPopTop() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    HeapSiftDown(0);
  }
}

void LocalStrideScheduler::HeapPushJob(JobId id, const Entry& entry) const {
  heap_.push_back(
      HeapItem{entry.pass, TieOf(id, entry.gang_size), heap_gen_[id.value()]});
  HeapSiftUp(heap_.size() - 1);
}

void LocalStrideScheduler::FixHeapTop() const {
  while (!heap_.empty()) {
    const HeapItem& top = heap_.front();
    const uint32_t raw_id = static_cast<uint32_t>(top.tie);
    const uint32_t pos = raw_id < index_of_.size() ? index_of_[raw_id] : 0;
    // A matching generation implies the entry exists and is runnable: both
    // removal and the runnable→false transition bump the generation.
    if (pos != 0 && heap_gen_[raw_id] == top.gen) {
      const Entry& entry = entries_[pos - 1].second;
      if (entry.pass == top.pass) {
        return;  // live and current → the true minimum (keys only increase)
      }
      // Stale key: the job was charged (or pass-floored) since the push.
      // Stored keys lower-bound true keys, so re-keying the top in place and
      // sifting down keeps extraction order identical to a full sort.
      GFAIR_DCHECK(entry.pass > top.pass);
      heap_.front().pass = entry.pass;
      HeapSiftDown(0);
      continue;
    }
    // Tombstone (removed or made non-runnable since the push).
    HeapPopTop();
  }
}

void LocalStrideScheduler::MaybeCompactHeap() const {
  // Tombstones accumulate one per removal/runnable-toggle; rebuild when they
  // clearly dominate so heap operations stay O(log live).
  if (heap_.size() > 2 * entries_.size() + 64) {
    RebuildHeap();
  }
}

void LocalStrideScheduler::RebuildHeap() const {
  heap_.clear();
  heap_.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    if (entry.runnable) {
      heap_.push_back(
          HeapItem{entry.pass, TieOf(id, entry.gang_size), heap_gen_[id.value()]});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapItemAfter{});
}

Pass LocalStrideScheduler::MinRunnablePass() const {
  FixHeapTop();
  return heap_.empty() ? kInf : heap_.front().pass;
}

void LocalStrideScheduler::UpdateVirtualTime() {
  const Pass min_pass = MinRunnablePass();
#ifndef NDEBUG
  Pass check = kInf;
  for (const auto& [id, entry] : entries_) {
    if (entry.runnable) {
      check = std::min(check, entry.pass);
    }
  }
  GFAIR_DCHECK_MSG(check == min_pass, "heap min-pass drifted from entry scan");
#endif
  if (min_pass != kInf) {
    virtual_time_ = std::max(virtual_time_, min_pass);
  }
}

namespace {
// Below this many resident jobs, one contiguous sort of the runnable entries
// beats the heap walk's pop / re-key / re-push cycle — under total churn
// every selected candidate costs several scattered sifts, while sorting a
// few cache lines is nearly free. The heap takes over where the sort's
// O(n log n) on mostly-unchanged keys starts to dominate (it walks only the
// candidates selection actually examines).
constexpr size_t kSortSelectMaxJobs = 64;
}  // namespace

void LocalStrideScheduler::SelectBySort(std::vector<JobId>* out,
                                        Pass* min_runnable_pass) const {
  popped_scratch_.clear();
  for (const auto& [id, entry] : entries_) {
    if (entry.runnable) {
      popped_scratch_.push_back(
          HeapItem{entry.pass, TieOf(id, entry.gang_size), 0});
    }
  }
  std::sort(popped_scratch_.begin(), popped_scratch_.end(),
            [](const HeapItem& a, const HeapItem& b) {
              if (a.pass != b.pass) {
                return a.pass < b.pass;
              }
              return a.tie < b.tie;
            });
  *min_runnable_pass =
      popped_scratch_.empty() ? kInf : popped_scratch_.front().pass;
  int free = num_gpus_;
  for (const HeapItem& c : popped_scratch_) {
    if (free == 0) {
      break;
    }
    const uint32_t gang_bits = static_cast<uint32_t>(c.tie >> 32);
    const int gang =
        static_cast<int>(config_.big_job_first ? ~gang_bits : gang_bits);
    if (gang <= free) {
      out->push_back(JobId(static_cast<uint32_t>(c.tie)));
      free -= gang;
    }
  }
}

void LocalStrideScheduler::PlanQuantum(std::vector<JobId>* out,
                                       Pass* min_runnable_pass) const {
  out->clear();
  // Adaptive selection: tiny candidate sets sort, larger ones walk the
  // incremental heap. The sort path never touches the heap — that is legal
  // because stored heap keys only ever lower-bound true passes, so leaving
  // them stale cannot reorder a later heap-driven extraction.
  if (entries_.size() <= kSortSelectMaxJobs) {
    SelectBySort(out, min_runnable_pass);
    return;
  }
  popped_scratch_.clear();
  Pass min_pass = kInf;
  int free = num_gpus_;
  // Pop live candidates in (pass, tie) order, packing each one that fits the
  // remaining capacity and backfilling past those that do not — identical to
  // walking a fully sorted candidate list. Stop once the server is packed:
  // items left in the heap are exactly the candidates a sort-based walk
  // would never have examined. The FixHeapTop logic is inlined into the loop
  // (this is the innermost per-quantum loop cluster-wide).
  while (free > 0 && !heap_.empty()) {
    HeapItem& top = heap_.front();
    const uint32_t raw_id = static_cast<uint32_t>(top.tie);
    const uint32_t pos = raw_id < index_of_.size() ? index_of_[raw_id] : 0;
    // A matching generation implies the entry exists and is runnable: both
    // removal and the runnable→false transition bump the generation.
    if (pos == 0 || heap_gen_[raw_id] != top.gen) {
      HeapPopTop();  // tombstone
      continue;
    }
    const Pass true_pass = entries_[pos - 1].second.pass;
    if (true_pass != top.pass) {
      // Stale key (charged or pass-floored since the push). Stored keys
      // lower-bound true keys, so re-keying the top in place and sifting
      // down keeps extraction order identical to a full sort.
      GFAIR_DCHECK(true_pass > top.pass);
      top.pass = true_pass;
      HeapSiftDown(0);
      continue;
    }
    const HeapItem item = top;
    if (min_pass == kInf) {
      min_pass = item.pass;  // first live top = min pass over runnable jobs
    }
    HeapPopTop();
    popped_scratch_.push_back(item);
    // The gang rides in the tie key's high half (inverted when
    // big_job_first) — recovering it there spares the entries_ load.
    const uint32_t gang_bits = static_cast<uint32_t>(item.tie >> 32);
    const int gang =
        static_cast<int>(config_.big_job_first ? ~gang_bits : gang_bits);
    GFAIR_DCHECK(gang == entries_[pos - 1].second.gang_size);
    if (gang <= free) {
      out->push_back(JobId(raw_id));
      free -= gang;
    }
    // Jobs that do not fit the remaining capacity are skipped (backfill);
    // their frozen pass keeps them at the head until they fit.
  }
  if (min_pass == kInf) {
    // Packed instantly (free hit 0 before any pop) or only tombstones seen so
    // far: the min may still be sitting in the heap.
    min_pass = MinRunnablePass();
  }
  // Examined candidates (selected or backfilled past) stay scheduled — put
  // their items back; they carry current passes, so they re-enter live. When
  // most of the heap was popped (total churn), one Floyd rebuild beats
  // per-item sift-ups, which all climb to the root (the popped items are
  // exactly the minimum keys).
  if (!popped_scratch_.empty()) {
    if (popped_scratch_.size() >= heap_.size()) {
      heap_.insert(heap_.end(), popped_scratch_.begin(), popped_scratch_.end());
      std::make_heap(heap_.begin(), heap_.end(), HeapItemAfter{});
    } else {
      for (const HeapItem& item : popped_scratch_) {
        heap_.push_back(item);
        HeapSiftUp(heap_.size() - 1);
      }
    }
  }
  *min_runnable_pass = min_pass;

#ifndef NDEBUG
  // Debug cross-check: the heap-driven walk must match a from-scratch sort of
  // the runnable entries (the pre-heap implementation).
  {
    struct Candidate {
      Pass pass;
      uint64_t tie;
      int gang;
    };
    std::vector<Candidate> candidates;
    Pass check_min = kInf;
    for (const auto& [id, entry] : entries_) {
      if (entry.runnable) {
        check_min = std::min(check_min, entry.pass);
        candidates.push_back(
            Candidate{entry.pass, TieOf(id, entry.gang_size), entry.gang_size});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.pass != b.pass) {
                  return a.pass < b.pass;
                }
                return a.tie < b.tie;
              });
    std::vector<JobId> check_out;
    int check_free = num_gpus_;
    for (const Candidate& candidate : candidates) {
      if (candidate.gang <= check_free) {
        check_out.push_back(JobId(static_cast<uint32_t>(candidate.tie)));
        check_free -= candidate.gang;
        if (check_free == 0) {
          break;
        }
      }
    }
    GFAIR_DCHECK_MSG(check_min == min_pass,
                     "heap min-pass drifted from sorted recompute");
    GFAIR_DCHECK_MSG(check_out == *out,
                     "heap selection drifted from sorted recompute");
  }
#endif
}

void LocalStrideScheduler::AdvanceVirtualTime(Pass min_runnable_pass) {
  if (min_runnable_pass != kInf) {
    virtual_time_ = std::max(virtual_time_, min_runnable_pass);
  }
}

const std::vector<JobId>& LocalStrideScheduler::SelectForQuantum() {
  Pass min_pass = kInf;
  PlanQuantum(&selected_scratch_, &min_pass);
  AdvanceVirtualTime(min_pass);
  return selected_scratch_;
}

}  // namespace gfair::sched
