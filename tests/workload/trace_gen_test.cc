#include "workload/trace_gen.h"

#include <gtest/gtest.h>

#include <map>

namespace gfair::workload {
namespace {

std::vector<UserWorkloadSpec> TwoUserSpecs() {
  std::vector<UserWorkloadSpec> specs(2);
  specs[0].name = "a";
  specs[0].mean_interarrival = Minutes(10);
  specs[0].stop = Hours(10);
  specs[1] = specs[0];
  specs[1].name = "b";
  return specs;
}

TEST(TraceGenTest, DeterministicForSameSeed) {
  const auto specs = TwoUserSpecs();
  TraceGenerator gen_a(ModelZoo::Default(), 99);
  TraceGenerator gen_b(ModelZoo::Default(), 99);
  const auto trace_a = gen_a.Generate(specs, {UserId(0), UserId(1)});
  const auto trace_b = gen_b.Generate(specs, {UserId(0), UserId(1)});
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].arrival, trace_b[i].arrival);
    EXPECT_EQ(trace_a[i].model, trace_b[i].model);
    EXPECT_EQ(trace_a[i].gang_size, trace_b[i].gang_size);
  }
}

TEST(TraceGenTest, ArrivalsSortedAndWithinWindow) {
  TraceGenerator gen(ModelZoo::Default(), 1);
  auto specs = TwoUserSpecs();
  specs[0].start = Hours(1);
  const auto trace = gen.Generate(specs, {UserId(0), UserId(1)});
  ASSERT_FALSE(trace.empty());
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
    }
    EXPECT_LT(trace[i].arrival, Hours(10));
    if (trace[i].user == UserId(0)) {
      EXPECT_GE(trace[i].arrival, Hours(1));
    }
  }
}

TEST(TraceGenTest, ArrivalRateApproximatelyPoisson) {
  TraceGenerator gen(ModelZoo::Default(), 5);
  std::vector<UserWorkloadSpec> specs(1);
  specs[0].name = "a";
  specs[0].mean_interarrival = Minutes(6);
  specs[0].stop = Hours(200);
  const auto trace = gen.Generate(specs, {UserId(0)});
  // Expected jobs = 200h / 6min = 2000; allow 10%.
  EXPECT_NEAR(static_cast<double>(trace.size()), 2000.0, 200.0);
}

TEST(TraceGenTest, RespectsModelMix) {
  TraceGenerator gen(ModelZoo::Default(), 3);
  std::vector<UserWorkloadSpec> specs(1);
  specs[0].name = "a";
  specs[0].model_mix = {{"VAE", 1.0}};
  specs[0].mean_interarrival = Minutes(5);
  specs[0].stop = Hours(20);
  const auto trace = gen.Generate(specs, {UserId(0)});
  const ModelId vae = ModelZoo::Default().GetByName("VAE").id;
  for (const auto& entry : trace) {
    EXPECT_EQ(entry.model, vae);
  }
}

TEST(TraceGenTest, GangSizesFollowDistribution) {
  TraceGenerator gen(ModelZoo::Default(), 17);
  std::vector<UserWorkloadSpec> specs(1);
  specs[0].name = "a";
  specs[0].mean_interarrival = Minutes(1);
  specs[0].stop = Hours(200);
  const auto trace = gen.Generate(specs, {UserId(0)});
  std::map<int, int> counts;
  for (const auto& entry : trace) {
    counts[entry.gang_size] += 1;
  }
  // Typical mix: 60/20/12/8.
  const double n = static_cast<double>(trace.size());
  EXPECT_NEAR(counts[1] / n, 0.60, 0.05);
  EXPECT_NEAR(counts[2] / n, 0.20, 0.05);
  EXPECT_NEAR(counts[4] / n, 0.12, 0.04);
  EXPECT_NEAR(counts[8] / n, 0.08, 0.04);
}

TEST(TraceGenTest, MaxJobsCapsStream) {
  TraceGenerator gen(ModelZoo::Default(), 23);
  std::vector<UserWorkloadSpec> specs(1);
  specs[0].name = "a";
  specs[0].max_jobs = 5;
  specs[0].stop = Hours(1000);
  EXPECT_EQ(gen.Generate(specs, {UserId(0)}).size(), 5u);
}

TEST(TraceGenTest, MinibatchesMatchDurationTimesRate) {
  const auto& model = ModelZoo::Default().GetByName("DCGAN");
  const double work = TraceGenerator::MinibatchesFor(model, 2, Hours(1));
  EXPECT_DOUBLE_EQ(work,
                   model.GangThroughput(cluster::GpuGeneration::kK80, 2) * 3600.0);
}

TEST(TraceGenTest, MeanUnderSixSecondsYieldsTenTimesTheMean) {
  // The minute floor lies above the 10x-mean cap here; the cap wins.
  TraceGenerator gen(ModelZoo::Default(), 5);
  std::vector<UserWorkloadSpec> specs(1);
  specs[0].name = "a";
  specs[0].mean_interarrival = Minutes(1);
  specs[0].mean_duration_k80 = Seconds(3);
  specs[0].stop = Hours(1);
  const auto trace = gen.Generate(specs, {UserId(0)});
  ASSERT_FALSE(trace.empty());
  for (const TraceEntry& entry : trace) {
    const auto& model = ModelZoo::Default().Get(entry.model);
    EXPECT_DOUBLE_EQ(entry.total_minibatches,
                     TraceGenerator::MinibatchesFor(model, entry.gang_size, Seconds(30)));
  }
}

TEST(TraceGenTest, DiurnalModulationShiftsLoadWithinTheDay) {
  TraceGenerator gen(ModelZoo::Default(), 31);
  std::vector<UserWorkloadSpec> specs(1);
  specs[0].name = "a";
  specs[0].mean_interarrival = Minutes(2);
  specs[0].stop = Hours(240);  // 10 days
  specs[0].diurnal_amplitude = 0.8;
  const auto trace = gen.Generate(specs, {UserId(0)});
  ASSERT_GT(trace.size(), 1000u);
  // Peak quarter of the sine (hours 3-9 of each day) must see far more
  // arrivals than the trough quarter (hours 15-21).
  int peak = 0;
  int trough = 0;
  for (const auto& entry : trace) {
    const double hour_of_day = ToHours(entry.arrival % Hours(24));
    if (hour_of_day >= 3 && hour_of_day < 9) {
      ++peak;
    } else if (hour_of_day >= 15 && hour_of_day < 21) {
      ++trough;
    }
  }
  EXPECT_GT(peak, 3 * trough);
}

TEST(TraceGenTest, ZeroAmplitudeMatchesPlainPoisson) {
  std::vector<UserWorkloadSpec> specs(1);
  specs[0].name = "a";
  specs[0].stop = Hours(50);
  TraceGenerator plain(ModelZoo::Default(), 9);
  const auto base = plain.Generate(specs, {UserId(0)});
  specs[0].diurnal_amplitude = 0.0;
  TraceGenerator modulated(ModelZoo::Default(), 9);
  const auto same = modulated.Generate(specs, {UserId(0)});
  ASSERT_EQ(base.size(), same.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].arrival, same[i].arrival);
  }
}

TEST(TraceGenTest, AddingUserDoesNotPerturbOthers) {
  auto specs1 = TwoUserSpecs();
  std::vector<UserWorkloadSpec> specs2 = specs1;
  UserWorkloadSpec extra = specs1[0];
  extra.name = "c";
  specs2.push_back(extra);

  TraceGenerator gen1(ModelZoo::Default(), 42);
  TraceGenerator gen2(ModelZoo::Default(), 42);
  const auto trace1 = gen1.Generate(specs1, {UserId(0), UserId(1)});
  const auto trace2 = gen2.Generate(specs2, {UserId(0), UserId(1), UserId(2)});

  // User 0's stream must be identical in both traces (per-user RNG forks).
  std::vector<SimTime> arrivals1;
  std::vector<SimTime> arrivals2;
  for (const auto& entry : trace1) {
    if (entry.user == UserId(0)) {
      arrivals1.push_back(entry.arrival);
    }
  }
  for (const auto& entry : trace2) {
    if (entry.user == UserId(0)) {
      arrivals2.push_back(entry.arrival);
    }
  }
  EXPECT_EQ(arrivals1, arrivals2);
}

}  // namespace
}  // namespace gfair::workload
