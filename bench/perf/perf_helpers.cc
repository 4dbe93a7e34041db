#include "bench/perf/perf_helpers.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/stats.h"

namespace gfair::perfbench {

Periods PeriodsFor(const sched::GandivaFairConfig& config, const cluster::Cluster& cluster) {
  Periods periods;
  periods.quantum = config.quantum;
  if (config.enable_load_balancing && cluster.num_servers() > 1) {
    periods.balance = config.balance_period;
  }
  if (config.enable_trading && cluster.heterogeneous()) {
    periods.trade = config.trade_period;
  }
  return periods;
}

const char* InstantKindName(InstantKind kind) {
  switch (kind) {
    case InstantKind::kAdmit:
      return "admit";
    case InstantKind::kTickPlain:
      return "tick_plain";
    case InstantKind::kTickBalance:
      return "tick_balance";
    case InstantKind::kTickTrade:
      return "tick_trade";
  }
  return "?";
}

namespace {

bool Fires(SimDuration period, SimTime t) { return period > 0 && t % period == 0; }

InstantKind KindAt(const Periods& periods, SimTime t) {
  if (Fires(periods.trade, t)) {
    return InstantKind::kTickTrade;
  }
  if (Fires(periods.balance, t)) {
    return InstantKind::kTickBalance;
  }
  if (Fires(periods.quantum, t)) {
    return InstantKind::kTickPlain;
  }
  return InstantKind::kAdmit;
}

}  // namespace

std::vector<Instant> BuildInstants(const Periods& periods, SimTime from, SimTime to,
                                   const std::vector<SimTime>& arrivals) {
  GFAIR_CHECK(periods.quantum > 0);
  GFAIR_CHECK(from < to);
  // Every balance pass and trade epoch then falls on a tick instant.
  GFAIR_CHECK(periods.balance % periods.quantum == 0);
  GFAIR_CHECK(periods.trade % periods.quantum == 0);
  std::vector<SimTime> times;
  for (SimTime t = (from / periods.quantum + 1) * periods.quantum; t <= to;
       t += periods.quantum) {
    times.push_back(t);
  }
  for (SimTime t : arrivals) {
    if (t > from && t <= to) {
      times.push_back(t);
    }
  }
  std::sort(times.begin(), times.end());

  std::vector<SimTime> sorted_arrivals(arrivals);
  std::sort(sorted_arrivals.begin(), sorted_arrivals.end());
  std::vector<Instant> instants;
  for (size_t i = 0; i < times.size(); ++i) {
    if (i > 0 && times[i] == times[i - 1]) {
      continue;
    }
    Instant instant;
    instant.time = times[i];
    instant.kind = KindAt(periods, times[i]);
    const auto [lo, hi] =
        std::equal_range(sorted_arrivals.begin(), sorted_arrivals.end(), times[i]);
    instant.arrivals = static_cast<int>(hi - lo);
    instants.push_back(instant);
  }
  return instants;
}

std::optional<double> PercentileWithTail(const std::vector<double>& samples, double p,
                                         size_t min_beyond) {
  GFAIR_CHECK(p >= 0.0 && p <= 100.0);
  const double beyond = static_cast<double>(samples.size()) * (100.0 - p) / 100.0;
  if (samples.empty() || beyond < static_cast<double>(min_beyond)) {
    return std::nullopt;
  }
  PercentileSampler sampler;
  for (double x : samples) {
    sampler.Add(x);
  }
  return sampler.Percentile(p);
}

namespace {

// Lifetime decisions the log has recorded (all types).
int64_t TotalDecisions(const sched::DecisionLog& log) {
  int64_t total = 0;
  for (size_t t = 0; t < sched::kNumDecisionTypes; ++t) {
    total += log.Count(static_cast<sched::DecisionType>(t));
  }
  return total;
}

}  // namespace

void DecisionDigest::Mix(const void* bytes, size_t size) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ULL;  // FNV-1a prime
  }
}

void DecisionDigest::FoldCounts(const sched::DecisionLog& log) {
  for (size_t t = 0; t < sched::kNumDecisionTypes; ++t) {
    const int64_t count = log.Count(static_cast<sched::DecisionType>(t));
    Mix(&count, sizeof(count));
  }
  seen_ = TotalDecisions(log);
}

bool DecisionDigest::Fold(const sched::DecisionLog& log) {
  const int64_t total = TotalDecisions(log);
  const auto fresh = static_cast<size_t>(total - seen_);
  const sched::DecisionLog::EntriesView entries = log.entries();
  if (fresh > entries.size()) {
    return false;
  }
  for (size_t i = entries.size() - fresh; i < entries.size(); ++i) {
    const sched::Decision& d = entries[i];
    const uint8_t type = static_cast<uint8_t>(d.type);
    const uint32_t ids[3] = {d.job.value(), d.from.value(), d.to.value()};
    const double rate = d.rate.raw();
    uint64_t rate_bits = 0;
    std::memcpy(&rate_bits, &rate, sizeof(rate_bits));
    Mix(&d.time, sizeof(d.time));
    Mix(&type, sizeof(type));
    Mix(ids, sizeof(ids));
    Mix(&rate_bits, sizeof(rate_bits));
  }
  seen_ = total;
  folded_ += static_cast<int64_t>(fresh);
  return true;
}

}  // namespace gfair::perfbench
