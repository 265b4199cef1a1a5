// Baseline algorithms: FloodSetWS (P-based flooding, t+1), Hurfin-Raynal
// (<>S, 2-round attempts, 2t+2 worst case), Chandra-Toueg (<>S, 4-round
// attempts), AMR (leader-based, 2-round attempts).  Each must solve
// consensus in its model and exhibit the round complexity the paper's
// comparison relies on.

#include <gtest/gtest.h>

#include "consensus/amr_leader.hpp"
#include "consensus/chandra_toueg.hpp"
#include "consensus/floodset_ws.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

// --- FloodSetWS -----------------------------------------------------------

TEST(FloodSetWS, DecidesAtTPlus1InEverySynchronousRun) {
  const SystemConfig cfg{.n = 6, .t = 2};
  const SyncSweep sweep = worst_case_sync_decision_round(
      cfg, KernelOptions{}, floodset_ws_factory(),
      all_hostile_sync_schedules(cfg), {distinct_proposals(cfg.n)});
  // Perfect-FD flooding is t+1-fast.
  const Round paper = price(PriceRow::FloodSetWS, cfg, cfg.t).round;
  EXPECT_EQ(sweep.min_round, paper);
  EXPECT_EQ(sweep.max_round, paper);
}

TEST(FloodSetWS, MutualSuspicionExclusionIsSymmetric) {
  // If p suspects q, then q learns it from p's Halt and excludes p too —
  // the handshake that A_{t+2} inherits.  Exercise with one silent crash.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 1, /*before_send=*/true);
  RunResult r = run_and_check(cfg, KernelOptions{}, floodset_ws_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok());
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 1);
  }
}

// --- Hurfin-Raynal ---------------------------------------------------------

TEST(HurfinRaynal, FailureFreeDecidesInTwoRounds) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RunResult r = run_and_check(cfg, KernelOptions{}, hurfin_raynal_factory(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::HurfinRaynal, cfg, 0).round);
  // The first coordinator is p0, so its value 0 wins.
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0);
  }
}

TEST(HurfinRaynal, CoordinatorAssassinationCosts2tPlus2Rounds) {
  // The paper's R5: HR has synchronous runs needing 2t + 2 rounds.
  for (const SystemConfig cfg : {SystemConfig{.n = 5, .t = 2},
                                 SystemConfig{.n = 7, .t = 3},
                                 SystemConfig{.n = 9, .t = 4}}) {
    RunResult r = run_and_check(cfg, KernelOptions{}, hurfin_raynal_factory(),
                                distinct_proposals(cfg.n),
                                coordinator_assassin_schedule(cfg, cfg.t));
    ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
    EXPECT_EQ(*r.global_decision_round,
              price(PriceRow::HurfinRaynal, cfg, cfg.t).round)
        << "n=" << cfg.n << " t=" << cfg.t << "\n" << r.trace.to_string();
  }
}

TEST(HurfinRaynal, ConsensusUnderRandomEsAdversaries) {
  const SystemConfig cfg{.n = 5, .t = 2};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RandomEsOptions opt;
    opt.gst = 1 + static_cast<Round>(seed % 8);
    RandomEsAdversary adversary(cfg, opt, seed * 17 + 3);
    RunResult r = run_and_check(cfg, KernelOptions{}, hurfin_raynal_factory(),
                                distinct_proposals(cfg.n), adversary);
    ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
    ASSERT_TRUE(r.agreement && r.validity && r.termination)
        << "seed " << seed << "\n" << r.trace.to_string();
  }
}

TEST(HurfinRaynal, PartialCoordinatorDeliveryLocksButDoesNotDecide) {
  // The coordinator's broadcast reaches only some processes: nobody may
  // decide that attempt, but the value must be locked for the next one.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 1);              // coordinator of attempt 0 dies mid-broadcast
  b.lose(0, 3, 1);
  b.lose(0, 4, 1);
  RunResult r = run_and_check(cfg, KernelOptions{}, hurfin_raynal_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  // p1, p2 saw est 0 and voted it; everyone locks 0; attempt 1 decides 0.
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0) << r.trace.to_string();
  }
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::HurfinRaynal, cfg, 1).round);
}

TEST(HurfinRaynal, RejectsMinorityCorrect) {
  EXPECT_THROW(HurfinRaynal(0, SystemConfig{.n = 4, .t = 2}),
               std::invalid_argument);
}

// --- Chandra-Toueg ---------------------------------------------------------

TEST(ChandraToueg, FailureFreeDecidesInFourRounds) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RunResult r = run_and_check(cfg, KernelOptions{}, chandra_toueg_factory(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::ChandraToueg, cfg, 0).round);
}

TEST(ChandraToueg, AssassinatingCoordinatorsCostsFourRoundsEach) {
  const SystemConfig cfg{.n = 5, .t = 2};
  // Kill coordinator p_a of attempt a (rounds 4a+1..4a+4) at its first round.
  ScheduleBuilder b(cfg);
  for (int a = 0; a < cfg.t; ++a) {
    b.crash(a, 4 * a + 1, /*before_send=*/true);
  }
  RunResult r = run_and_check(cfg, KernelOptions{}, chandra_toueg_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::ChandraToueg, cfg, cfg.t).round);
}

TEST(ChandraToueg, ConsensusUnderRandomEsAdversaries) {
  const SystemConfig cfg{.n = 5, .t = 2};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RandomEsOptions opt;
    opt.gst = 1 + static_cast<Round>(seed % 10);
    RandomEsAdversary adversary(cfg, opt, seed * 101 + 7);
    RunResult r = run_and_check(cfg, KernelOptions{}, chandra_toueg_factory(),
                                distinct_proposals(cfg.n), adversary);
    ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
    ASSERT_TRUE(r.agreement && r.validity && r.termination)
        << "seed " << seed << "\n" << r.trace.to_string();
  }
}

TEST(ChandraToueg, TimestampLockingSurvivesCoordinatorDeathAfterAcks) {
  // The coordinator gathers a majority of acks, then dies delivering its
  // R4 decide to a single process: that decision must bind everyone.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 4);  // dies in R4 of attempt 0
  ProcessSet lost = ProcessSet::all(cfg.n);
  lost.erase(0);
  lost.erase(1);  // only p1 hears DECIDE(v)
  b.losing_to(0, 4, lost);
  RunResult r = run_and_check(cfg, KernelOptions{}, chandra_toueg_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value,
              r.trace.decision_of(1)->value);
  }
}

// --- AMR (leader-based) ----------------------------------------------------

TEST(AmrLeader, FailureFreeDecidesInTwoRounds) {
  const SystemConfig cfg{.n = 7, .t = 2};
  RunResult r = run_and_check(cfg, KernelOptions{}, amr_leader_factory(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  EXPECT_EQ(*r.global_decision_round, price(PriceRow::Amr, cfg, 0).round);
  // Leader p0's estimate is adopted by everyone in the first adopt round.
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0);
  }
}

TEST(AmrLeader, LeaderCrashesCostTwoRoundsEach) {
  // Handcrafted 2f+2 run, n = 8, t = f = 2 (n >= 3t+2 so a vote round can
  // stay below the n-2t adoption threshold on both sides):
  //   round 1: leader p0 crashes; its est 0 reaches {p1, p5, p6} only.
  //            Camp A (heard p0) adopts 0; camp B adopts p1's est 1.
  //   round 2: votes among lowest n-t senders split 3/3 < n-2t = 4 ->
  //            everyone keeps its estimate; attempt wasted.
  //   round 3: new leader p1 crashes; est 0 reaches {p2, p3, p6} only;
  //            the rest adopt p2's pre-round est 1: still 3/3.
  //   round 4: split votes again, attempt wasted.
  //   rounds 5-6: crash-free attempt converges and decides.
  const SystemConfig cfg{.n = 8, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 1);
  b.losing_to(0, 1, ProcessSet::all(cfg.n) - ProcessSet{0, 1, 5, 6});
  b.crash(1, 3);
  b.losing_to(1, 3, ProcessSet::all(cfg.n) - ProcessSet{1, 2, 3, 6});
  RunResult r = run_and_check(cfg, KernelOptions{}, amr_leader_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  EXPECT_EQ(*r.global_decision_round, price(PriceRow::Amr, cfg, cfg.t).round)
      << r.trace.to_string();
}

TEST(AmrLeader, ConsensusUnderRandomEsAdversaries) {
  const SystemConfig cfg{.n = 7, .t = 2};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RandomEsOptions opt;
    opt.gst = 1 + static_cast<Round>(seed % 8);
    RandomEsAdversary adversary(cfg, opt, seed * 13 + 11);
    RunResult r = run_and_check(cfg, KernelOptions{}, amr_leader_factory(),
                                distinct_proposals(cfg.n), adversary);
    ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
    ASSERT_TRUE(r.agreement && r.validity && r.termination)
        << "seed " << seed << "\n" << r.trace.to_string();
  }
}

TEST(AmrLeader, RejectsTAtLeastNOver3) {
  EXPECT_THROW(AmrLeader(0, SystemConfig{.n = 6, .t = 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace indulgence
