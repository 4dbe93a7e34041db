#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>

#include "cluster/gpu.h"
#include "common/check.h"

namespace gfair::workload {

double TraceGenerator::MinibatchesFor(const ModelProfile& model, int gang_size,
                                      SimDuration duration_on_k80) {
  GFAIR_CHECK(duration_on_k80 > 0);
  const double rate = model.GangThroughput(cluster::GpuGeneration::kK80, gang_size);
  return rate * ToSeconds(duration_on_k80);
}

std::vector<TraceEntry> TraceGenerator::Generate(
    const std::vector<UserWorkloadSpec>& specs, const std::vector<UserId>& user_ids) {
  GFAIR_CHECK(specs.size() == user_ids.size());
  std::vector<TraceEntry> trace;

  for (size_t u = 0; u < specs.size(); ++u) {
    const UserWorkloadSpec& spec = specs[u];
    GFAIR_CHECK(spec.mean_interarrival > 0);
    GFAIR_CHECK(spec.mean_duration_k80 > 0);
    GFAIR_CHECK(spec.start <= spec.stop);
    // Per-user stream so adding a user does not perturb others' draws.
    Rng user_rng = rng_.Fork();

    // Resolve the model mix into (ModelId, weight).
    std::vector<ModelId> models;
    std::vector<double> weights;
    if (spec.model_mix.empty()) {
      for (const auto& model : zoo_.models()) {
        models.push_back(model.id);
        weights.push_back(1.0);
      }
    } else {
      for (const auto& [name, weight] : spec.model_mix) {
        models.push_back(zoo_.GetByName(name).id);
        weights.push_back(weight);
      }
    }
    GFAIR_CHECK(!models.empty());

    std::vector<double> gang_weights;
    for (const auto& [size, weight] : spec.gang_sizes.entries) {
      GFAIR_CHECK(size >= 1);
      gang_weights.push_back(weight);
    }
    GFAIR_CHECK(!gang_weights.empty());

    // The log-normal is parameterized so that its mean equals
    // spec.mean_duration_k80: mean = exp(mu + sigma^2/2).
    const double sigma = spec.duration_sigma;
    const double mu =
        std::log(static_cast<double>(spec.mean_duration_k80)) - sigma * sigma / 2.0;

    GFAIR_CHECK(spec.diurnal_amplitude >= 0.0 && spec.diurnal_amplitude < 1.0);
    GFAIR_CHECK(spec.diurnal_period > 0);
    SimTime t = spec.start;
    int generated = 0;
    while (spec.max_jobs < 0 || generated < spec.max_jobs) {
      t += static_cast<SimDuration>(
          user_rng.Exponential(static_cast<double>(spec.mean_interarrival)));
      if (t >= spec.stop) {
        break;
      }
      if (spec.diurnal_amplitude > 0.0) {
        // Thinning: keep the arrival with probability proportional to the
        // instantaneous rate (max rate = 1 + amplitude).
        const double phase = 2.0 * M_PI * static_cast<double>(t % spec.diurnal_period) /
                             static_cast<double>(spec.diurnal_period);
        const double relative_rate =
            (1.0 + spec.diurnal_amplitude * std::sin(phase)) /
            (1.0 + spec.diurnal_amplitude);
        if (!user_rng.Bernoulli(relative_rate)) {
          continue;
        }
      }
      const ModelId model_id = models[user_rng.WeightedIndex(weights)];
      const int gang_size =
          spec.gang_sizes.entries[user_rng.WeightedIndex(gang_weights)].first;
      // Clamp durations into [1 minute, 10x mean] to keep the tail heavy but
      // finite within experiment horizons. The cap is applied last, so a
      // mean under 6 s (10x mean under the minute floor) yields 10x the mean.
      double duration_ms = user_rng.LogNormal(mu, sigma);
      duration_ms = std::min(std::max(duration_ms, static_cast<double>(kMinute)),
                             10.0 * static_cast<double>(spec.mean_duration_k80));
      const double work = MinibatchesFor(zoo_.Get(model_id), gang_size,
                                         static_cast<SimDuration>(duration_ms));
      trace.push_back(TraceEntry{user_ids[u], model_id, gang_size, work, t});
      ++generated;
    }
  }

  std::stable_sort(trace.begin(), trace.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.arrival < b.arrival;
                   });
  return trace;
}

}  // namespace gfair::workload
