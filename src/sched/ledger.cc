#include "sched/ledger.h"

#include <algorithm>

#include "common/check.h"

namespace gfair::sched {

using cluster::GenerationIndex;
using cluster::GpuGeneration;

FairnessLedger::PerUser& FairnessLedger::GetOrCreate(UserId user) {
  GFAIR_CHECK(user.valid());
  if (user.value() >= per_user_.size()) {
    per_user_.resize(user.value() + 1);
    known_.resize(user.value() + 1, false);
  }
  known_[user.value()] = true;
  return per_user_[user.value()];
}

const FairnessLedger::PerUser* FairnessLedger::Find(UserId user) const {
  if (!user.valid() || user.value() >= per_user_.size() || !known_[user.value()]) {
    return nullptr;
  }
  return &per_user_[user.value()];
}

void FairnessLedger::CreditGpuMs(UserId user, GpuGeneration gen, SimTime time,
                                 int64_t gpu_ms) {
  GFAIR_CHECK(gpu_ms >= 0);
  if (gpu_ms == 0) {
    return;
  }
  GetOrCreate(user).gpu_ms[GenerationIndex(gen)].Add(time, static_cast<double>(gpu_ms));
}

void FairnessLedger::RecordGpuTime(UserId user, GpuGeneration gen, SimTime start,
                                   SimTime end, int gpus) {
  GFAIR_CHECK(start <= end && gpus > 0);
  CreditGpuMs(user, gen, end, (end - start) * gpus);
}

void FairnessLedger::RecordDemandChange(UserId user, GpuGeneration gen, SimTime time,
                                        int delta) {
  auto& record = GetOrCreate(user);
  double& current = record.current_demand[GenerationIndex(gen)];
  current += delta;
  GFAIR_CHECK_MSG(current >= -1e-9, "demand went negative");
  current = std::max(current, 0.0);
  record.demand[GenerationIndex(gen)].Record(time, current);
}

double FairnessLedger::GpuMs(UserId user, GpuGeneration gen, SimTime from,
                             SimTime to) const {
  const PerUser* record = Find(user);
  if (record == nullptr) {
    return 0.0;
  }
  const auto& series = record->gpu_ms[GenerationIndex(gen)];
  return series.TotalUpTo(to) - series.TotalUpTo(from);
}

double FairnessLedger::GpuMs(UserId user, SimTime from, SimTime to) const {
  double total = 0.0;
  for (GpuGeneration gen : cluster::kAllGenerations) {
    total += GpuMs(user, gen, from, to);
  }
  return total;
}

GpuSeconds FairnessLedger::GpuTime(UserId user, GpuGeneration gen, SimTime from,
                                   SimTime to) const {
  return GpuSeconds::FromMillis(GpuMs(user, gen, from, to));
}

GpuSeconds FairnessLedger::GpuTime(UserId user, SimTime from, SimTime to) const {
  return GpuSeconds::FromMillis(GpuMs(user, from, to));
}

const simkit::TimeSeries& FairnessLedger::DemandSeries(UserId user,
                                                       GpuGeneration gen) const {
  static const simkit::TimeSeries kEmpty;
  const PerUser* record = Find(user);
  if (record == nullptr) {
    return kEmpty;
  }
  return record->demand[GenerationIndex(gen)];
}

double FairnessLedger::DemandAt(UserId user, GpuGeneration gen, SimTime time) const {
  return DemandSeries(user, gen).ValueAt(time, 0.0);
}

double FairnessLedger::TotalDemandAt(UserId user, SimTime time) const {
  double total = 0.0;
  for (GpuGeneration gen : cluster::kAllGenerations) {
    total += DemandAt(user, gen, time);
  }
  return total;
}

std::vector<UserId> FairnessLedger::KnownUsers() const {
  std::vector<UserId> users;
  users.reserve(per_user_.size());
  for (uint32_t u = 0; u < per_user_.size(); ++u) {
    if (known_[u]) {
      users.push_back(UserId(u));
    }
  }
  return users;
}

}  // namespace gfair::sched
