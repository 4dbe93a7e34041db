#include "bench/perf/speed_probe.h"

#include <algorithm>
#include <cmath>

#include "bench/perf/perfbench.h"

namespace gfair::perfbench {

namespace {

constexpr size_t kTableSize = size_t{1} << 18;  // ~8 MB of nodes and buckets
constexpr int kLookupsPerSample = 1000;
constexpr size_t kBranchValues = size_t{1} << 16;
constexpr int kBranchesPerSample = 20000;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

SpeedProbe::SpeedProbe(int64_t period_ns) : period_ns_(period_ns) {
  uint64_t seed = 0x70726f6265ULL;
  table_.reserve(kTableSize);
  keys_.reserve(kTableSize);
  while (keys_.size() < kTableSize) {
    const uint64_t key = SplitMix(&seed);
    if (table_.emplace(key, keys_.size()).second) {
      keys_.push_back(key);
    }
  }
  branches_.resize(kBranchValues);
  for (uint32_t& value : branches_) {
    value = static_cast<uint32_t>(SplitMix(&seed));
  }
}

void SpeedProbe::MaybeSample() {
  if (HostNowNs() >= next_ns_) {
    Sample();
  }
}

void SpeedProbe::Sample() {
  const int64_t start = HostNowNs();
  uint64_t sum = 0;
  for (int i = 0; i < kLookupsPerSample; ++i) {
    sum += table_.find(keys_[SplitMix(&rng_) % keys_.size()])->second;
  }
  for (int i = 0; i < kBranchesPerSample; ++i) {
    const uint32_t value = branches_[branch_at_];
    branch_at_ = (branch_at_ + 1) & (kBranchValues - 1);
    if ((value & 1) != 0) {
      sum += value;
    } else if ((value & 2) != 0) {
      sum ^= value;
    } else {
      sum -= 3;
    }
  }
  const int64_t end = HostNowNs();
  sink_ += sum;  // keeps the work from being optimised away
  sample_us_.push_back(static_cast<double>(end - start) / 1e3);
  next_ns_ = end + period_ns_;
}

void SpeedProbe::Reset() {
  sample_us_.clear();
  next_ns_ = 0;
}

double SpeedProbe::MedianUs() const {
  if (sample_us_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = sample_us_;
  const auto middle = sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2);
  std::nth_element(sorted.begin(), middle, sorted.end());
  return *middle;
}

double SpeedScale(double probe_us) {
  return probe_us > 0.0 ? std::pow(SpeedProbe::kReferenceUs / probe_us, SpeedProbe::kExponent)
                        : 1.0;
}

}  // namespace gfair::perfbench
