// The host's speed, sampled between the measured steps so that every host
// timing can be reported at one reference speed.
//
// perfbench runs on shared machines whose speed drifts by tens of percent
// over minutes, for every workload at once, as other tenants come and go.
// Raw host times then vary more between runs than any bound worth setting.
// Two fixed kernels timed alongside the simulator slow down with it: random
// lookups in a hash table several times the size of L2, which the simulator
// evicts between samples, so they pay the cache and TLB misses that the
// simulator's pointer-heavy state pays; and a loop of unpredictable branches.
// The probe is the benchmark's own code and calls nothing in src/, so a
// change to the simulator cannot move it: scaling by it cancels the
// machine's drift, not the program's speed.
#ifndef GFAIR_BENCH_PERF_SPEED_PROBE_H_
#define GFAIR_BENCH_PERF_SPEED_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gfair::perfbench {

class SpeedProbe {
 public:
  // One sample's time at the reference speed, in microseconds: its median
  // in the quiet phases of a shared 4-vCPU Xeon VM at 2.0 GHz. Scaled
  // timings read as that machine's when quiet.
  static constexpr double kReferenceUs = 260.0;

  // How much more the simulator slows down than the probe. Same-seed
  // repetitions of every workload, run for an hour through the machine's
  // slow and fast phases, fit host time ∝ probe time^1.4..1.8. Scaled with
  // 1.5, the per-process medians spread 3-6% (interquartile range over
  // median) where raw ones spread 12-22%.
  static constexpr double kExponent = 1.5;

  // Samples at most once per `period_ns` of host time.
  explicit SpeedProbe(int64_t period_ns = 20'000'000);

  // Takes a sample if a period has passed since the last one.
  void MaybeSample();
  // Takes a sample now.
  void Sample();
  // Forgets the samples taken so far.
  void Reset();

  size_t samples() const { return sample_us_.size(); }
  // Median time of one sample, in microseconds; 0 without samples.
  double MedianUs() const;

 private:
  int64_t period_ns_;
  int64_t next_ns_ = 0;
  std::unordered_map<uint64_t, uint64_t> table_;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> branches_;
  size_t branch_at_ = 0;
  uint64_t rng_ = 0;
  uint64_t sink_ = 0;
  std::vector<double> sample_us_;
};

// The factor that takes a host time measured while the probe read
// `probe_us` to the reference speed: (kReferenceUs / probe_us)^kExponent;
// 1 without samples.
double SpeedScale(double probe_us);

}  // namespace gfair::perfbench

#endif  // GFAIR_BENCH_PERF_SPEED_PROBE_H_
