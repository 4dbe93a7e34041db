#include "sched/stride.h"

#include <algorithm>

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
  entries_.emplace_back(id, Entry{gang_size, share, rate, virtual_time_});
  demand_load_ += gang_size;
  InvalidateAggregates(/*membership_changed=*/true);
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
  demand_load_ -= it->second.gang_size;
  if (!owned_rates_.empty()) {
    owned_rates_.erase(id);
  }
  entries_.erase(it);
  InvalidateAggregates(/*membership_changed=*/true);
  AdvanceVirtualTime(MinRunnablePass());
}

void LocalStrideScheduler::SetTickets(JobId id, Tickets tickets) {
  GFAIR_CHECK(tickets > 0.0);
  auto it = FindEntry(id);
  GFAIR_CHECK(it != entries_.end());
  it->second.share = 1.0;
  it->second.rate = OwnRate(id, tickets);
  InvalidateAggregates(/*membership_changed=*/false);
}

const LocalStrideScheduler::Entry& LocalStrideScheduler::GetEntry(JobId id) const {
  auto it = FindEntry(id);
  GFAIR_CHECK_MSG(it != entries_.end(), "unknown job");
  return it->second;
}

Pass LocalStrideScheduler::PassOf(JobId id) const { return GetEntry(id).pass; }
int LocalStrideScheduler::GangOf(JobId id) const { return GetEntry(id).gang_size; }
Tickets LocalStrideScheduler::TicketsOf(JobId id) const { return GetEntry(id).tickets(); }

Tickets LocalStrideScheduler::FreshTicketLoad() const {
  Tickets total = 0.0;
  for (const auto& [id, entry] : entries_) {
    total += entry.tickets();
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
    total += entry.gang_size;
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
      resident_pos_cache_.push_back(static_cast<uint32_t>(FindEntry(id) - entries_.begin()));
    }
    positions_dirty_ = false;
  }
  return resident_pos_cache_;
}

void LocalStrideScheduler::PlanQuantum(std::vector<JobId>* out,
                                       Pass* min_runnable_pass) const {
  out->clear();
  candidates_scratch_.clear();
  for (const auto& [id, entry] : entries_) {
    candidates_scratch_.push_back(Candidate{entry.pass, TieOf(id, entry.gang_size)});
  }
  std::sort(candidates_scratch_.begin(), candidates_scratch_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.pass != b.pass) {
                return a.pass < b.pass;
              }
              return a.tie < b.tie;
            });
  *min_runnable_pass =
      candidates_scratch_.empty() ? kInf : candidates_scratch_.front().pass;
  // Pack in (pass, tie) order, backfilling past gangs that do not fit the
  // remaining capacity; their frozen pass keeps them at the head until they
  // fit.
  int free = num_gpus_;
  for (const Candidate& c : candidates_scratch_) {
    if (free == 0) {
      break;
    }
    // The gang rides in the tie key's high half (inverted when
    // big_job_first).
    const uint32_t gang_bits = static_cast<uint32_t>(c.tie >> 32);
    const int gang =
        static_cast<int>(config_.big_job_first ? ~gang_bits : gang_bits);
    if (gang <= free) {
      out->push_back(JobId(static_cast<uint32_t>(c.tie)));
      free -= gang;
    }
  }
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
