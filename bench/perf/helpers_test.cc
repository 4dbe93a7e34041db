#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench/perf/perf_helpers.h"
#include "bench/perf/perfbench.h"
#include "bench/perf/speed_probe.h"
#include "cluster/cluster.h"
#include "sched/decision_log.h"
#include "sched/gandiva_fair.h"

namespace gfair::perfbench {
namespace {

const Periods kPaperPeriods{Minutes(1), Minutes(5), Minutes(10)};

const Instant* At(const std::vector<Instant>& instants, SimTime t) {
  for (const Instant& instant : instants) {
    if (instant.time == t) {
      return &instant;
    }
  }
  return nullptr;
}

TEST(InstantClassifierTest, ArrivalOnATickFoldsIntoTheTick) {
  const std::vector<Instant> instants = BuildInstants(
      kPaperPeriods, kTimeZero, Minutes(3), {Seconds(30), Minutes(2), Minutes(2)});
  ASSERT_EQ(instants.size(), 4u);  // 30 s, 1, 2 and 3 min
  EXPECT_EQ(instants[0].time, Seconds(30));
  EXPECT_EQ(instants[0].kind, InstantKind::kAdmit);
  EXPECT_EQ(instants[0].arrivals, 1);
  const Instant* tick = At(instants, Minutes(2));
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->kind, InstantKind::kTickPlain);
  EXPECT_TRUE(tick->tick());
  EXPECT_EQ(tick->arrivals, 2);
}

TEST(InstantClassifierTest, TradeWinsWhenBalanceAndTradeCoincide) {
  const std::vector<Instant> instants = BuildInstants(kPaperPeriods, kTimeZero, Minutes(20), {});
  ASSERT_EQ(instants.size(), 20u);
  EXPECT_EQ(At(instants, Minutes(4))->kind, InstantKind::kTickPlain);
  EXPECT_EQ(At(instants, Minutes(5))->kind, InstantKind::kTickBalance);
  EXPECT_EQ(At(instants, Minutes(10))->kind, InstantKind::kTickTrade);
  EXPECT_EQ(At(instants, Minutes(15))->kind, InstantKind::kTickBalance);
  EXPECT_EQ(At(instants, Minutes(20))->kind, InstantKind::kTickTrade);
}

TEST(InstantClassifierTest, HomogeneousClusterHasNoTradeInstant) {
  const sched::GandivaFairConfig config;
  const cluster::Cluster homogeneous(cluster::HomogeneousTopology(4, 8));
  const Periods periods = PeriodsFor(config, homogeneous);
  EXPECT_EQ(periods.trade, 0);
  EXPECT_EQ(periods.balance, config.balance_period);
  for (const Instant& instant : BuildInstants(periods, kTimeZero, Hours(1), {})) {
    EXPECT_NE(instant.kind, InstantKind::kTickTrade) << instant.time;
  }
  EXPECT_EQ(At(BuildInstants(periods, kTimeZero, Hours(1), {}), Minutes(10))->kind,
            InstantKind::kTickBalance);

  const cluster::Cluster paper(cluster::PaperScaleTopology());
  EXPECT_EQ(PeriodsFor(config, paper).trade, config.trade_period);
  const cluster::Cluster single(cluster::HomogeneousTopology(1, 8));
  EXPECT_EQ(PeriodsFor(config, single).balance, 0);
}

TEST(InstantClassifierTest, KeepsOnlyArrivalsInsideTheWindow) {
  const std::vector<Instant> instants = BuildInstants(
      kPaperPeriods, Minutes(1), Minutes(2), {Seconds(10), Minutes(1), Seconds(90), Minutes(3)});
  ASSERT_EQ(instants.size(), 2u);
  EXPECT_EQ(instants[0].time, Seconds(90));
  EXPECT_EQ(instants[1].time, Minutes(2));
  EXPECT_EQ(instants[1].arrivals, 0);
}

TEST(PercentileWithTailTest, NeedsTenSamplesBeyondThePercentile) {
  std::vector<double> samples;
  for (int i = 1; i <= 19; ++i) {
    samples.push_back(i);
  }
  EXPECT_FALSE(PercentileWithTail(samples, 50.0).has_value());
  samples.push_back(20);
  ASSERT_TRUE(PercentileWithTail(samples, 50.0).has_value());
  EXPECT_DOUBLE_EQ(*PercentileWithTail(samples, 50.0), 10.5);
  EXPECT_FALSE(PercentileWithTail(samples, 95.0).has_value());

  for (int i = 21; i <= 199; ++i) {
    samples.push_back(i);
  }
  EXPECT_FALSE(PercentileWithTail(samples, 95.0).has_value());
  samples.push_back(200);
  ASSERT_TRUE(PercentileWithTail(samples, 95.0).has_value());
  EXPECT_DOUBLE_EQ(*PercentileWithTail(samples, 95.0), 190.05);
  EXPECT_FALSE(PercentileWithTail({}, 50.0).has_value());
}

void RecordMoves(sched::DecisionLog* log, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    const auto id = static_cast<uint32_t>(i);
    log->Record(Seconds(i), sched::DecisionType::kMigrateBalance, JobId(id), ServerId(id),
                ServerId(id + 1));
  }
}

TEST(DecisionDigestTest, FoldAcrossARingWrapMatchesAnUnboundedLog) {
  sched::DecisionLog ring(4);
  sched::DecisionLog unbounded(100);
  DecisionDigest ring_digest;
  DecisionDigest unbounded_digest;
  for (int step = 0; step < 5; ++step) {
    RecordMoves(&ring, 3 * step, 3);
    RecordMoves(&unbounded, 3 * step, 3);
    ASSERT_TRUE(ring_digest.Fold(ring));
    ASSERT_TRUE(unbounded_digest.Fold(unbounded));
  }
  ring.RecordTrade(Minutes(1), Speedup::FromRatio(1.5));
  unbounded.RecordTrade(Minutes(1), Speedup::FromRatio(1.5));
  ASSERT_TRUE(ring_digest.Fold(ring));
  ASSERT_TRUE(unbounded_digest.Fold(unbounded));
  EXPECT_GT(ring.dropped_entries(), 0);
  EXPECT_EQ(ring_digest.value(), unbounded_digest.value());
  EXPECT_EQ(ring_digest.folded(), 16);
}

TEST(DecisionDigestTest, RefusesAStepThatOverflowsTheRing) {
  sched::DecisionLog ring(4);
  DecisionDigest digest;
  RecordMoves(&ring, 0, 2);
  ASSERT_TRUE(digest.Fold(ring));
  const uint64_t before = digest.value();
  RecordMoves(&ring, 2, 5);
  EXPECT_FALSE(digest.Fold(ring));
  EXPECT_EQ(digest.value(), before);
  EXPECT_EQ(digest.folded(), 2);
}

TEST(DecisionDigestTest, EveryFieldChangesTheDigest) {
  const auto digest_of = [](SimTime time, uint32_t job, uint32_t to, double rate) {
    sched::DecisionLog log(8);
    log.Record(time, sched::DecisionType::kResume, JobId(job), ServerId::Invalid(),
               ServerId(to));
    log.RecordTrade(time, Speedup::FromRatio(rate));
    DecisionDigest digest;
    EXPECT_TRUE(digest.Fold(log));
    return digest.value();
  };
  const uint64_t base = digest_of(Seconds(1), 1, 2, 1.5);
  EXPECT_NE(digest_of(Seconds(2), 1, 2, 1.5), base);
  EXPECT_NE(digest_of(Seconds(1), 3, 2, 1.5), base);
  EXPECT_NE(digest_of(Seconds(1), 1, 4, 1.5), base);
  EXPECT_NE(digest_of(Seconds(1), 1, 2, 1.25), base);
}

TEST(DecisionDigestTest, FoldCountsSkipsAPrefixLongerThanTheRing) {
  sched::DecisionLog ring(4);
  RecordMoves(&ring, 0, 10);
  DecisionDigest digest;
  digest.FoldCounts(ring);
  RecordMoves(&ring, 10, 3);
  ASSERT_TRUE(digest.Fold(ring));
  EXPECT_EQ(digest.folded(), 3);
}

TEST(SteadyLoadTest, ComparesTheWindowHalves) {
  EXPECT_TRUE(SteadyLoad({100, 102, 98, 101, 99, 100}));
  EXPECT_TRUE(SteadyLoad({100, 100, 109, 109}));
  EXPECT_FALSE(SteadyLoad({100, 100, 111, 111}));
  EXPECT_FALSE(SteadyLoad({100, 150, 200, 250}));
  EXPECT_FALSE(SteadyLoad({100}));
}

TEST(SpeedProbeTest, SamplesAtMostOncePerPeriod) {
  SpeedProbe probe(/*period_ns=*/int64_t{3600} * 1'000'000'000);
  EXPECT_DOUBLE_EQ(probe.MedianUs(), 0.0);
  probe.MaybeSample();
  probe.MaybeSample();
  EXPECT_EQ(probe.samples(), 1u);
  EXPECT_GT(probe.MedianUs(), 0.0);
  probe.Sample();
  EXPECT_EQ(probe.samples(), 2u);
  probe.Reset();
  EXPECT_EQ(probe.samples(), 0u);
  probe.MaybeSample();
  EXPECT_EQ(probe.samples(), 1u);
}

TEST(SpeedProbeTest, ScaleTakesTheProbeToTheReferenceSpeed) {
  EXPECT_DOUBLE_EQ(SpeedScale(SpeedProbe::kReferenceUs), 1.0);
  EXPECT_DOUBLE_EQ(SpeedScale(2.0 * SpeedProbe::kReferenceUs),
                   std::pow(0.5, SpeedProbe::kExponent));
  EXPECT_LT(SpeedScale(2.0 * SpeedProbe::kReferenceUs), 0.5);
  EXPECT_DOUBLE_EQ(SpeedScale(0.0), 1.0);
}

}  // namespace
}  // namespace gfair::perfbench
