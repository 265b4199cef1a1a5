// Lower-bound explorer machinery: action enumeration, schedule realization,
// sequence iteration, and the delivery-pattern worst-case search.

#include <gtest/gtest.h>

#include "consensus/amr_leader.hpp"
#include "consensus/floodset.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/price.hpp"
#include "lb/explorer.hpp"

namespace indulgence {
namespace {

const SystemConfig kCfg{.n = 3, .t = 1};

TEST(Explorer, ActionEnumerationCountsAreExact) {
  // n = 3, nobody crashed: NoOp + 3 victims x 2^2 crash subsets = 13.
  const auto sync = enumerate_actions(kCfg, ProcessSet::all(3), 0,
                                      /*allow_delays=*/false, 0);
  EXPECT_EQ(sync.size(), 13u);
  // With delays: + 3 victims x (2^2 - 1) nonempty delay subsets = 22.
  const auto async = enumerate_actions(kCfg, ProcessSet::all(3), 0,
                                       /*allow_delays=*/true, 2);
  EXPECT_EQ(async.size(), 22u);
}

TEST(Explorer, BudgetExhaustionLeavesOnlyNoOp) {
  const auto actions = enumerate_actions(kCfg, ProcessSet::all(3), kCfg.t,
                                         /*allow_delays=*/true, 2);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, AdversaryAction::Kind::NoOp);
}

TEST(Explorer, DeadProcessesAreNotVictims) {
  ProcessSet alive = ProcessSet::all(3);
  alive.erase(0);
  const SystemConfig wide{.n = 3, .t = 2};
  for (const AdversaryAction& a :
       enumerate_actions(wide, alive, 1, false, 0)) {
    if (a.kind == AdversaryAction::Kind::Crash) {
      EXPECT_NE(a.victim, 0);
    }
  }
}

TEST(Explorer, ScheduleFromActionsRealizesCrashAndDelay) {
  std::vector<AdversaryAction> actions(2);
  actions[0] = {AdversaryAction::Kind::Delay, 0,
                ProcessSet{1}.mask(), 2};
  actions[1] = {AdversaryAction::Kind::Crash, 2,
                ProcessSet{1}.mask(), 0};
  const RunSchedule s = schedule_from_actions(kCfg, actions);
  EXPECT_EQ(s.plan(1).fate(0, 1), Fate::delay_to(3));
  EXPECT_TRUE(s.plan(2).crashes_process(2));
  EXPECT_EQ(s.plan(2).fate(2, 0), Fate::lose());
  EXPECT_EQ(s.plan(2).fate(2, 1), Fate::deliver());
  EXPECT_GE(s.gst(), 3) << "GST must cover the delayed arrival";
}

TEST(Explorer, EmptyCrashMaskMeansSilentCrash) {
  std::vector<AdversaryAction> actions(1);
  actions[0] = {AdversaryAction::Kind::Crash, 1, 0, 0};
  const RunSchedule s = schedule_from_actions(kCfg, actions);
  EXPECT_TRUE(s.plan(1).crashes_before_send(1));
}

TEST(Explorer, SequenceCountMatchesClosedForm) {
  // Length-1 sequences at (3,1): 13 sync, 22 with delays.
  long count = for_each_action_sequence(kCfg, 1, false, 0,
                                        [](const auto&) { return true; });
  EXPECT_EQ(count, 13);
  count = for_each_action_sequence(kCfg, 1, true, 2,
                                   [](const auto&) { return true; });
  EXPECT_EQ(count, 22);
  // Length-2 sync: first round NoOp -> 13 more, crash -> only NoOp.
  // 1 * 13 + 12 * 1 = 25.
  count = for_each_action_sequence(kCfg, 2, false, 0,
                                   [](const auto&) { return true; });
  EXPECT_EQ(count, 25);
}

TEST(Explorer, VisitorCanStopEarly) {
  int seen = 0;
  for_each_action_sequence(kCfg, 2, false, 0, [&](const auto&) {
    return ++seen < 5;
  });
  EXPECT_EQ(seen, 5);
}

TEST(Explorer, SyncExplorerAgreesWithKnownFloodSetBounds) {
  SyncRunExplorer explorer(kCfg, floodset_factory(), {5, 3, 9});
  const auto stats = explorer.explore(kCfg.t + 1);
  EXPECT_TRUE(stats.all_ok());
  const Round paper = price(PriceRow::FloodSet, kCfg, kCfg.t).round;
  EXPECT_EQ(stats.max_decision_round, paper);
  EXPECT_EQ(stats.min_decision_round, paper);
  // Reachable decisions: 3 always survives (p1 cannot be silenced together
  // with anyone else at t = 1), and 5 wins only if p1 dies silently.
  EXPECT_TRUE(stats.decision_values.count(3));
  EXPECT_TRUE(stats.decision_values.count(5));
  EXPECT_FALSE(stats.decision_values.count(9));
  EXPECT_TRUE(stats.worst_schedule.has_value());
}

TEST(Explorer, WorstCaseOverDeliveriesIsExhaustiveWhenSmall) {
  const WorstCaseResult w = worst_case_over_deliveries(
      kCfg, hurfin_raynal_factory(), distinct_proposals(kCfg.n),
      {{0, 1}});
  EXPECT_TRUE(w.all_ok);
  EXPECT_EQ(w.runs, 4);  // 2^(n-1) patterns
  // Killing the first coordinator costs HR one full attempt.
  EXPECT_EQ(w.worst_decision_round,
            price(PriceRow::HurfinRaynal, kCfg, 1).round);
  EXPECT_TRUE(w.schedule.has_value());
}

TEST(Explorer, PrefixedSearchFindsAmrsEventualDecisionCell) {
  // E8's k = 2, f = 1 cell.  The camp-splitting prefix leaves every
  // receiver exactly n - t in-round copies in rounds 1..k, and the leader
  // crashing at GST costs AMR a whole two-round attempt: k + 2f + 2 = 6, at
  // any job count.
  const SystemConfig cfg{.n = 8, .t = 2};
  const Round k = 2;
  ScheduleBuilder prefix(cfg);
  camp_split_prefix(prefix, cfg, k, ProcessSet{0, 6, 7});
  const RunResult r = run_and_check(cfg, KernelOptions{}, amr_leader_factory(),
                                    distinct_proposals(cfg.n), prefix.build());
  EXPECT_TRUE(r.validation.ok()) << r.validation.to_string();
  EXPECT_EQ(r.trace.gst(), k + 1);
  for (Round round = 1; round <= k; ++round) {
    for (ProcessId receiver = 0; receiver < cfg.n; ++receiver) {
      EXPECT_EQ(r.trace.in_round_senders(receiver, round).size(),
                cfg.n - cfg.t)
          << "p" << receiver << " round " << round;
    }
  }
  for (int jobs : {1, 4}) {
    const WorstCaseResult w = worst_case_over_deliveries(
        cfg, amr_leader_factory(), distinct_proposals(cfg.n), {{0, k + 1}},
        /*exhaustive_limit=*/1 << 16, /*samples=*/4096, /*seed=*/1,
        /*max_rounds=*/64, CampaignOptions{.jobs = jobs}, &prefix);
    EXPECT_TRUE(w.all_ok) << "jobs=" << jobs;
    EXPECT_EQ(w.runs, 128) << "jobs=" << jobs;  // 2^(n-1) patterns
    EXPECT_EQ(w.worst_decision_round, price(PriceRow::Amr, cfg, 1, k).round)
        << "jobs=" << jobs;
  }
}

TEST(Explorer, WorstCaseRejectsTooManySlots) {
  EXPECT_THROW(worst_case_over_deliveries(kCfg, hurfin_raynal_factory(),
                                          distinct_proposals(kCfg.n),
                                          {{0, 1}, {1, 3}}),
               std::invalid_argument);
}

TEST(Explorer, ActionToStringIsInformative) {
  AdversaryAction crash{AdversaryAction::Kind::Crash, 2,
                        ProcessSet{0}.mask(), 0};
  EXPECT_NE(crash.to_string().find("crash(p2"), std::string::npos);
  AdversaryAction delay{AdversaryAction::Kind::Delay, 1,
                        ProcessSet{0, 2}.mask(), 3};
  EXPECT_NE(delay.to_string().find("delay(p1"), std::string::npos);
  EXPECT_NE(delay.to_string().find("+3"), std::string::npos);
}

}  // namespace
}  // namespace indulgence
