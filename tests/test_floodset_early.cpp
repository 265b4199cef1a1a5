// FloodSetEarly — early-deciding uniform consensus in SCS (decides at
// f + 2 with f actual crashes).  Uniform agreement is machine-checked by
// exhaustive serial-run enumeration and by burst schedules with several
// crashes in one round.

#include <gtest/gtest.h>

#include "consensus/floodset_early.hpp"
#include "core/price.hpp"
#include "lb/explorer.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

constexpr KernelOptions kEs{.max_rounds = 64};

TEST(FloodSetEarly, FailureFreeDecidesInTwoRounds) {
  const SystemConfig cfg{.n = 7, .t = 3};
  RunResult r = run_and_check(cfg, kEs, floodset_early_factory(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::FloodSetEarly, cfg, 0).round);
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0);
  }
}

TEST(FloodSetEarly, DecidesByFPlus2OnHostileSchedules) {
  const SystemConfig cfg{.n = 7, .t = 3};
  for (int f = 0; f <= cfg.t; ++f) {
    std::vector<RunSchedule> schedules = hostile_sync_schedules(cfg, f);
    std::erase_if(schedules, [&](const RunSchedule& s) {
      return s.last_planned_round() > f + 1;  // crashes in first f+1
    });
    const SyncSweep sweep = worst_case_sync_decision_round(
        cfg, kEs, floodset_early_factory(), schedules,
        {distinct_proposals(cfg.n)});
    // f + 2, not the row's min(f + 2, t + 1): the early-deciding bound
    // alone, as the classical f + 2 result states it.
    EXPECT_LE(sweep.max_round, f + 2) << "f=" << f;
  }
}

TEST(FloodSetEarly, ExhaustiveSerialEnumerationConfirmsUniformAgreement) {
  // EVERY serial synchronous run at (4,1) and (5,2): uniform agreement,
  // validity, termination, and the worst case is exactly t + 2 (a crash in
  // each of the first t rounds keeps views unstable through round t + 1).
  for (const SystemConfig cfg :
       {SystemConfig{4, 1}, SystemConfig{5, 2}}) {
    SyncRunExplorer explorer(cfg, floodset_early_factory(),
                             distinct_proposals(cfg.n));
    const auto stats = explorer.explore(cfg.t + 2);
    EXPECT_TRUE(stats.all_ok()) << "n=" << cfg.n;
    EXPECT_EQ(stats.min_decision_round,
              price(PriceRow::FloodSetEarly, cfg, 0).round);
    EXPECT_LE(stats.max_decision_round, cfg.t + 2);
  }
}

TEST(FloodSetEarly, MultiCrashBurstsKeepUniformAgreement) {
  // Serial enumeration covers one crash per round; bursts cover the rest:
  // every delivery pattern of two same-round crashes at (5,2).
  const SystemConfig cfg{.n = 5, .t = 2};
  for (Round burst_round : {1, 2, 3}) {
    const WorstCaseResult w = worst_case_over_deliveries(
        cfg, floodset_early_factory(), distinct_proposals(cfg.n),
        {{0, burst_round}, {1, burst_round}});
    EXPECT_TRUE(w.all_ok) << "burst at round " << burst_round;
    EXPECT_LE(w.worst_decision_round, cfg.t + 2);
  }
}

TEST(FloodSetEarly, StragglerAdoptsTheDecisionNotice) {
  // p4 perceives a fresh crash every round until t+1 and decides last, via
  // the DECIDE relay of the earlier deciders.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 1);
  b.losing_to(0, 1, ProcessSet{4});
  b.crash(1, 2);
  b.losing_to(1, 2, ProcessSet{4});
  RunResult r = run_and_check(cfg, kEs, floodset_early_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value,
              r.trace.decision_of(2)->value);
  }
}

TEST(FloodSetEarly, IsExactlyTheCandidateTheSyncLowerBoundAllows) {
  // f + 2 is optimal for early decision in SCS ([4, 11]); in particular the
  // failure-free case cannot decide in one round.  Check the 2-round floor.
  const SystemConfig cfg{.n = 5, .t = 2};
  SyncRunExplorer explorer(cfg, floodset_early_factory(),
                           distinct_proposals(cfg.n));
  const auto stats = explorer.explore(1);
  EXPECT_GE(stats.min_decision_round,
            price(PriceRow::LowerBound, cfg, 0).round);
}

}  // namespace
}  // namespace indulgence
