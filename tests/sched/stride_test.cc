#include "sched/stride.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

namespace gfair::sched {
namespace {

bool Contains(const std::vector<JobId>& jobs, JobId id) {
  return std::find(jobs.begin(), jobs.end(), id) != jobs.end();
}

TEST(StrideTest, SingleJobGetsSelected) {
  LocalStrideScheduler stride(4);
  stride.AddJob(JobId(0), 2, 1.0);
  const auto selected = stride.SelectForQuantum();
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], JobId(0));
}

TEST(StrideTest, LowestPassWins) {
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.Charge(JobId(0), 100);
  EXPECT_EQ(stride.SelectForQuantum()[0], JobId(1));
}

TEST(StrideTest, ChargeScalesWithGangAndTickets) {
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 4, 2.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.Charge(JobId(0), 100);  // pass += 4*100/2 = 200
  stride.Charge(JobId(1), 100);  // pass += 1*100/1 = 100
  EXPECT_DOUBLE_EQ(stride.PassOf(JobId(0)).raw(), 200.0);
  EXPECT_DOUBLE_EQ(stride.PassOf(JobId(1)).raw(), 100.0);
}

TEST(StrideTest, GpuTimeProportionalToTickets) {
  // Simulate many quanta on a 1-GPU server with tickets 1:3; GPU time should
  // split 1:3.
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 1, 3.0);
  std::map<JobId, int> quanta;
  for (int tick = 0; tick < 400; ++tick) {
    const auto selected = stride.SelectForQuantum();
    ASSERT_EQ(selected.size(), 1u);
    quanta[selected[0]] += 1;
    stride.Charge(selected[0], 60'000);
  }
  EXPECT_NEAR(static_cast<double>(quanta[JobId(1)]) / quanta[JobId(0)], 3.0, 0.05);
}

TEST(StrideTest, GangChargedGangTimesFaster) {
  // 4-gang and 4x 1-GPU jobs, equal tickets each, 8 GPUs: the gang gets 4
  // GPUs' worth and each single job ~1 GPU's worth... with 5 jobs of equal
  // tickets on 8 GPUs, stride equalizes GPU time per ticket:
  // gang rate 4 gpus when on; it should run about half the time.
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 4, 1.0);
  for (int i = 1; i <= 8; ++i) {
    stride.AddJob(JobId(i), 1, 1.0);
  }
  std::map<JobId, double> gpu_time;
  for (int tick = 0; tick < 2000; ++tick) {
    for (JobId id : stride.SelectForQuantum()) {
      gpu_time[id] += stride.GangOf(id);
      stride.Charge(id, 1);
    }
  }
  // 9 jobs, equal tickets, 8 GPUs: each deserves 8/9 GPUs of time.
  const double expected = 2000.0 * 8.0 / 9.0;
  EXPECT_NEAR(gpu_time[JobId(0)], expected, expected * 0.05);
  EXPECT_NEAR(gpu_time[JobId(3)], expected, expected * 0.05);
}

TEST(StrideTest, NewJobEntersAtVirtualTime) {
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  for (int i = 0; i < 10; ++i) {
    (void)stride.SelectForQuantum();
    stride.Charge(JobId(0), 1000);
  }
  stride.AddJob(JobId(1), 1, 1.0);
  // Newcomer must not owe history: pass = virtual time (job 0's pass floor),
  // not 0 — but also must not leap ahead.
  EXPECT_GT(stride.PassOf(JobId(1)).raw(), 0.0);
  EXPECT_LE(stride.PassOf(JobId(1)), stride.PassOf(JobId(0)));
}

TEST(StrideTest, BigJobFirstWinsTies) {
  StrideConfig config;
  config.big_job_first = true;
  LocalStrideScheduler stride(8, config);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 8, 1.0);  // same pass (both at vt=0)
  const auto selected = stride.SelectForQuantum();
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], JobId(1));
}

TEST(StrideTest, GangServedFairlyUnderArrivalChurn) {
  // A stream of 1-GPU jobs entering at the virtual time ties with the
  // waiting 8-gang every round. Big-first tie-breaking serves the gang
  // immediately; small-first delays it until the virtual time climbs past
  // its pass — but because virtual time advances with delivered service,
  // neither variant starves it outright (the starvation of the E3 experiment
  // comes from run-to-completion backfill schedulers, and from the
  // unreserved mid-quantum fill path at the facade level).
  for (bool big_first : {false, true}) {
    StrideConfig config;
    config.big_job_first = big_first;
    LocalStrideScheduler stride(8, config);
    stride.AddJob(JobId(1000), 8, 1.0);
    int gang_quanta = 0;
    int first_service_round = -1;
    uint32_t next_id = 0;
    // 8 resident 1-GPU jobs at all times; replace them each round (finish +
    // new arrival), mimicking a continuous stream of short jobs.
    for (uint32_t i = 0; i < 8; ++i) {
      stride.AddJob(JobId(next_id++), 1, 1.0);
    }
    for (int round = 0; round < 90; ++round) {
      const auto selected = stride.SelectForQuantum();
      for (JobId id : selected) {
        stride.Charge(id, 60'000);
        if (id == JobId(1000)) {
          ++gang_quanta;
          if (first_service_round < 0) {
            first_service_round = round;
          }
        } else {
          stride.RemoveJob(id);  // short job finishes
          stride.AddJob(JobId(next_id++), 1, 1.0);
        }
      }
    }
    // Equal tickets for 9 jobs on 8 GPUs: fair share is ~one quantum in nine.
    EXPECT_GE(gang_quanta, 7) << "big_first=" << big_first;
    EXPECT_LE(gang_quanta, 14) << "big_first=" << big_first;
    if (big_first) {
      EXPECT_EQ(first_service_round, 0) << "ties must favor the gang";
    } else {
      EXPECT_GT(first_service_round, 0) << "small-first delays the gang";
    }
  }
}

TEST(StrideTest, BackfillsPastBlockedGang) {
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 6, 1.0);
  stride.AddJob(JobId(1), 4, 1.0);
  stride.AddJob(JobId(2), 2, 1.0);
  // Ties: big first = job0 (6 GPUs), job1 blocked (4 > 2 free), job2 fits.
  const auto selected = stride.SelectForQuantum();
  EXPECT_TRUE(Contains(selected, JobId(0)));
  EXPECT_FALSE(Contains(selected, JobId(1)));
  EXPECT_TRUE(Contains(selected, JobId(2)));
}

TEST(StrideTest, SetTicketsChangesFutureShares) {
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.SetTickets(JobId(0), 9.0);
  std::map<JobId, int> quanta;
  for (int tick = 0; tick < 500; ++tick) {
    const auto selected = stride.SelectForQuantum();
    quanta[selected[0]] += 1;
    stride.Charge(selected[0], 1000);
  }
  EXPECT_NEAR(static_cast<double>(quanta[JobId(0)]) / quanta[JobId(1)], 9.0, 0.5);
}

TEST(StrideTest, TicketAndDemandLoads) {
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 4, 2.5);
  stride.AddJob(JobId(1), 2, 0.5);
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 3.0);
  EXPECT_EQ(stride.DemandLoad(), 6);
  stride.RemoveJob(JobId(0));
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 0.5);
}

TEST(StrideTest, VirtualTimeMonotone) {
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  (void)stride.SelectForQuantum();
  stride.Charge(JobId(0), 5000);
  (void)stride.SelectForQuantum();
  const Pass vt = stride.VirtualTime();
  stride.RemoveJob(JobId(0));
  stride.AddJob(JobId(1), 1, 1.0);
  EXPECT_GE(stride.PassOf(JobId(1)), vt);
}

TEST(StrideTest, CachedLoadsTrackMutations) {
  // TicketLoad/DemandLoad are cached; every mutation class must invalidate
  // (or incrementally update) them.
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 2, 1.5);
  stride.AddJob(JobId(1), 4, 2.5);
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 4.0);
  EXPECT_EQ(stride.DemandLoad(), 6);

  stride.SetTickets(JobId(0), 3.5);
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 6.0);

  stride.RemoveJob(JobId(0));
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 2.5);
  EXPECT_EQ(stride.DemandLoad(), 4);
  stride.RemoveJob(JobId(1));
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 0.0);
  EXPECT_EQ(stride.DemandLoad(), 0);

  // Charging mutates passes only — loads must be unaffected (and readable
  // between charges without a recompute).
  stride.AddJob(JobId(2), 3, 1.25);
  const Tickets before = stride.TicketLoad();
  stride.Charge(JobId(2), 1000);
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), before.raw());
  EXPECT_EQ(stride.DemandLoad(), 3);
}

TEST(StrideTest, ExplicitTicketsReadBackExactly) {
  // Explicit tickets ride an owned rate {t, 1} at share 1; (t * 1) / 1 must
  // reproduce t bit for bit, including values with no short binary form.
  LocalStrideScheduler stride(8);
  const Tickets odd = 0.1 + 0.2;
  stride.AddJob(JobId(0), 1, odd);
  stride.AddJob(JobId(1), 2, 1e-6);
  stride.AddJob(JobId(2), 1, 3.7e5 / 3.0);
  EXPECT_EQ(stride.TicketsOf(JobId(0)), odd);
  EXPECT_EQ(stride.TicketsOf(JobId(1)), Tickets(1e-6));
  EXPECT_EQ(stride.TicketsOf(JobId(2)), Tickets(3.7e5 / 3.0));
  EXPECT_EQ(stride.TicketLoad(), odd + Tickets(1e-6) + Tickets(3.7e5 / 3.0));

  stride.SetTickets(JobId(0), 2.0 / 3.0);
  EXPECT_EQ(stride.TicketsOf(JobId(0)), Tickets(2.0 / 3.0));
  // A rate-priced entry pinned by SetTickets drops its rate for the owned one.
  TicketRate rate{7.0, 3.0};
  stride.AddJob(JobId(3), 1, /*share=*/1.0, &rate);
  EXPECT_EQ(stride.TicketsOf(JobId(3)), rate.TicketsFor(1.0));
  stride.SetTickets(JobId(3), 0.7);
  rate.pool_tickets = 100.0;
  EXPECT_EQ(stride.TicketsOf(JobId(3)), Tickets(0.7));
  // The owned rate dies with the entry; a re-added job starts afresh.
  stride.RemoveJob(JobId(0));
  stride.AddJob(JobId(0), 1, 5.0);
  EXPECT_EQ(stride.TicketsOf(JobId(0)), Tickets(5.0));
}

TEST(StrideTest, RatePricedEntriesFollowTheirRate) {
  LocalStrideScheduler stride(8);
  TicketRate rate{6.0, 4.0};
  stride.AddJob(JobId(0), 2, /*share=*/2.0, &rate);  // 6 * 2 / 4 = 3
  stride.AddJob(JobId(1), 1, /*share=*/0.5, &rate);  // 6 * 0.5 / 4 = 0.75
  stride.AddJob(JobId(2), 1, /*share=*/8.0, &rate);  // share > demand: 6 * 8 / 8
  EXPECT_EQ(stride.TicketsOf(JobId(0)), Tickets(3.0));
  EXPECT_EQ(stride.TicketsOf(JobId(1)), Tickets(0.75));
  EXPECT_EQ(stride.TicketsOf(JobId(2)), Tickets(6.0));
  EXPECT_EQ(stride.TicketLoad(), Tickets(9.75));

  // The owner re-prices: reads follow at once, the cached load only after
  // the invalidation the owner owes.
  rate.pool_demand = 2.0;
  EXPECT_EQ(stride.TicketsOf(JobId(0)), Tickets(6.0));
  EXPECT_EQ(stride.TicketLoad(), Tickets(9.75));
  EXPECT_EQ(stride.FreshTicketLoad(), Tickets(6.0 + 1.5 + 6.0));
  stride.InvalidateTicketLoad();
  EXPECT_EQ(stride.TicketLoad(), stride.FreshTicketLoad());
}

TEST(StrideTest, ResidentJobsCachedViewStaysSortedAndFresh) {
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(5), 1, 1.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.AddJob(JobId(9), 1, 1.0);
  const std::vector<JobId> expected{JobId(1), JobId(5), JobId(9)};
  EXPECT_EQ(stride.ResidentJobs(), expected);
  // Repeated reads return the same cached vector (no rebuild).
  const std::vector<JobId>* first = &stride.ResidentJobs();
  EXPECT_EQ(first, &stride.ResidentJobs());

  stride.RemoveJob(JobId(5));
  const std::vector<JobId> after{JobId(1), JobId(9)};
  EXPECT_EQ(stride.ResidentJobs(), after);
  stride.AddJob(JobId(0), 2, 1.0);
  const std::vector<JobId> again{JobId(0), JobId(1), JobId(9)};
  EXPECT_EQ(stride.ResidentJobs(), again);
}

TEST(StrideTest, PositionWalkChargesLikeIdLookups) {
  // Two schedulers see the same churn; one charges every resident by id,
  // the other through ResidentPositions() as the quantum tick does. Every
  // pass and the virtual time must agree bit for bit — including after
  // removals shift the entries under the cached positions.
  LocalStrideScheduler by_id(8);
  LocalStrideScheduler by_pos(8);
  const TicketRate rate{3.0, 5.0};
  uint32_t next_id = 40;  // descending-then-ascending ids: positions != id order
  auto add = [&](uint32_t id, int gang) {
    by_id.AddJob(JobId(id), gang, /*share=*/gang * 0.5, &rate);
    by_pos.AddJob(JobId(id), gang, /*share=*/gang * 0.5, &rate);
  };
  for (uint32_t id = 30; id > 20; --id) {
    add(id, 1 + static_cast<int>(id % 3));
  }
  for (int round = 0; round < 12; ++round) {
    const SimDuration ms = 997 + 131 * round;
    for (JobId id : by_id.ResidentJobs()) {
      by_id.Charge(id, ms + id.value());
    }
    const std::vector<JobId>& resident = by_pos.ResidentJobs();
    const std::vector<uint32_t>& positions = by_pos.ResidentPositions();
    ASSERT_EQ(resident.size(), positions.size());
    for (size_t i = 0; i < resident.size(); ++i) {
      by_pos.ChargeAt(positions[i], ms + resident[i].value());
    }
    ASSERT_EQ(by_id.ResidentJobs(), by_pos.ResidentJobs());
    for (JobId id : by_id.ResidentJobs()) {
      EXPECT_EQ(by_id.PassOf(id), by_pos.PassOf(id)) << "job " << id << " round " << round;
    }
    EXPECT_EQ(by_id.VirtualTime(), by_pos.VirtualTime()) << "round " << round;
    // Churn: drop the second-lowest id (shifting later entries), add one.
    const JobId victim = by_id.ResidentJobs()[1];
    by_id.RemoveJob(victim);
    by_pos.RemoveJob(victim);
    add(next_id++, 1 + round % 4);
  }
}

TEST(StrideTest, ChargeThroughChargesSinceTheEntrysInstant) {
  // One scheduler charges through instants, a twin charges the same spans
  // by explicit durations; passes and virtual time must agree bit for bit.
  LocalStrideScheduler stride(8);
  LocalStrideScheduler twin(8);
  const TicketRate rate{3.0, 5.0};
  stride.AddJob(JobId(7), 2, /*share=*/2.0, &rate, /*last_charge=*/Seconds(10));
  twin.AddJob(JobId(7), 2, /*share=*/2.0, &rate);
  // The explicit-ticket form starts charged through time zero.
  stride.AddJob(JobId(3), 4, 4.0);
  twin.AddJob(JobId(3), 4, 4.0);
  EXPECT_EQ(stride.ChargedThrough(JobId(7)), Seconds(10));
  EXPECT_EQ(stride.ChargedThrough(JobId(3)), kTimeZero);

  const std::vector<JobId>& resident = stride.ResidentJobs();
  const std::vector<uint32_t>& positions = stride.ResidentPositions();
  ASSERT_EQ(resident, (std::vector<JobId>{JobId(3), JobId(7)}));
  stride.ChargeThrough(positions[0], Seconds(70));
  stride.ChargeThrough(positions[1], Seconds(70));
  twin.Charge(JobId(3), Seconds(70));
  twin.Charge(JobId(7), Seconds(60));
  EXPECT_EQ(stride.ChargedThrough(JobId(3)), Seconds(70));
  EXPECT_EQ(stride.ChargedThrough(JobId(7)), Seconds(70));
  EXPECT_EQ(stride.PassOf(JobId(3)), twin.PassOf(JobId(3)));
  EXPECT_EQ(stride.PassOf(JobId(7)), twin.PassOf(JobId(7)));
  EXPECT_EQ(stride.VirtualTime(), twin.VirtualTime());
  EXPECT_GT(stride.PassOf(JobId(7)), Pass());

  // Charging through the same instant again is a zero-length charge: the
  // pass and the virtual time keep every bit.
  const auto bits = [](Pass p) { return std::bit_cast<uint64_t>(p.raw()); };
  const uint64_t pass_bits = bits(stride.PassOf(JobId(7)));
  const uint64_t vt_bits = bits(stride.VirtualTime());
  stride.ChargeThrough(positions[1], Seconds(70));
  EXPECT_EQ(bits(stride.PassOf(JobId(7))), pass_bits);
  EXPECT_EQ(bits(stride.VirtualTime()), vt_bits);

  // A resume moves the instant without charging; Charge by id leaves it.
  stride.SetChargedThrough(JobId(3), Seconds(100));
  EXPECT_EQ(stride.PassOf(JobId(3)), twin.PassOf(JobId(3)));
  stride.Charge(JobId(3), Seconds(1));
  twin.Charge(JobId(3), Seconds(1));
  EXPECT_EQ(stride.ChargedThrough(JobId(3)), Seconds(100));
  stride.ChargeThrough(positions[0], Seconds(130));
  twin.Charge(JobId(3), Seconds(30));
  EXPECT_EQ(stride.PassOf(JobId(3)), twin.PassOf(JobId(3)));
  EXPECT_EQ(stride.VirtualTime(), twin.VirtualTime());
}

TEST(StrideDeathTest, InvalidOperations) {
  LocalStrideScheduler stride(4);
  EXPECT_DEATH(stride.AddJob(JobId(0), 5, 1.0), "fit");
  EXPECT_DEATH(stride.AddJob(JobId(0), 1, 0.0), "");
  stride.AddJob(JobId(0), 1, 1.0);
  EXPECT_DEATH(stride.AddJob(JobId(0), 1, 1.0), "already");
  EXPECT_DEATH(stride.RemoveJob(JobId(9)), "unknown");
  EXPECT_DEATH(stride.Charge(JobId(9), 1), "unknown");
}

}  // namespace
}  // namespace gfair::sched
