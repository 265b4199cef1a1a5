// Proposition 1, executed (E2): any algorithm that globally decides by
// round t+1 in synchronous runs has an ES run violating uniform agreement.
// The bounded exhaustive adversary search must find such a run for each
// "too fast" candidate, and must come back empty for A_{t+2}, whose
// worst-case synchronous decision round the explorer pins at exactly t+2.

#include <gtest/gtest.h>

#include "consensus/floodset.hpp"
#include "consensus/floodset_ws.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "lb/attack.hpp"
#include "lb/explorer.hpp"
#include "sim/harness.hpp"
#include "sim/validator.hpp"

namespace indulgence {
namespace {

AlgorithmFactory at2() { return at2_factory(hurfin_raynal_factory()); }

AlgorithmFactory at2_truncated() {
  return at2_truncated_factory(hurfin_raynal_factory());
}

// ---------------------------------------------------------------------------
// The too-fast candidates really are t+1-fast in synchronous runs.
// ---------------------------------------------------------------------------

TEST(LowerBound, TooFastCandidatesDecideAtTPlus1InAllSyncRuns) {
  const SystemConfig cfg{.n = 3, .t = 1};
  for (const AlgorithmFactory& factory :
       {floodset_factory(), floodset_ws_factory(), at2_truncated()}) {
    SyncRunExplorer explorer(cfg, factory, distinct_proposals(cfg.n));
    const auto stats = explorer.explore(/*action_rounds=*/cfg.t + 1);
    EXPECT_GT(stats.runs, 0);
    EXPECT_TRUE(stats.all_terminated);
    EXPECT_LE(stats.max_decision_round, cfg.t + 2)
        << "candidate should be fast in sync runs";
  }
}

// ---------------------------------------------------------------------------
// The adversary search finds an agreement violation for each candidate.
// ---------------------------------------------------------------------------

class TooFastVictim
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

TEST(LowerBound, FloodSetInEsViolatesAgreement) {
  const SystemConfig cfg{.n = 3, .t = 1};
  AttackResult attack = search_agreement_violation(cfg, floodset_factory());
  ASSERT_TRUE(attack.violation_found)
      << "Proposition 1 guarantees an ES counterexample; tried "
      << attack.runs_tried << " runs";
  // Re-run the found schedule and double-check the trace independently.
  KernelOptions opt{.max_rounds = 64};
  RunResult r = run_and_check(cfg, opt, floodset_factory(),
                              *attack.proposals, *attack.schedule);
  EXPECT_TRUE(r.validation.ok()) << r.validation.to_string();
  EXPECT_FALSE(r.agreement) << r.trace.to_string();
}

TEST(LowerBound, FloodSetWsInEsViolatesAgreement) {
  const SystemConfig cfg{.n = 3, .t = 1};
  AttackResult attack =
      search_agreement_violation(cfg, floodset_ws_factory());
  ASSERT_TRUE(attack.violation_found) << attack.runs_tried << " runs tried";
  EXPECT_FALSE(attack.description.empty());
}

TEST(LowerBound, TruncatedAt2ViolatesAgreement) {
  const SystemConfig cfg{.n = 3, .t = 1};
  AttackOptions options;
  options.action_rounds = cfg.t + 2;
  AttackResult attack =
      search_agreement_violation(cfg, at2_truncated(), options);
  ASSERT_TRUE(attack.violation_found)
      << "the elimination property needs the full t+1 Phase-1 rounds; "
      << attack.runs_tried << " runs tried";
}

TEST(LowerBound, TruncatedAt2ViolationAlsoFoundAtN4) {
  const SystemConfig cfg{.n = 4, .t = 1};
  AttackResult attack = search_agreement_violation(cfg, at2_truncated());
  EXPECT_TRUE(attack.violation_found) << attack.runs_tried << " runs tried";
}

// ---------------------------------------------------------------------------
// A_{t+2} survives the same searches; its sync worst case is exactly t+2.
// ---------------------------------------------------------------------------

TEST(LowerBound, At2SurvivesTheFullAttackSearch) {
  const SystemConfig cfg{.n = 3, .t = 1};
  AttackOptions options;
  options.action_rounds = cfg.t + 3;  // strictly larger space than above
  AttackResult attack = search_agreement_violation(cfg, at2(), options);
  EXPECT_FALSE(attack.violation_found) << attack.description << "\n"
                                       << attack.trace_dump;
  EXPECT_GT(attack.runs_tried, 1000);
}

TEST(LowerBound, At2ExactWorstCaseSyncDecisionRoundIsTPlus2) {
  for (const SystemConfig cfg :
       {SystemConfig{.n = 3, .t = 1}, SystemConfig{.n = 4, .t = 1}}) {
    SyncRunExplorer explorer(cfg, at2(), distinct_proposals(cfg.n));
    const auto stats = explorer.explore(/*action_rounds=*/cfg.t + 2);
    EXPECT_TRUE(stats.all_ok());
    const Round paper = price(PriceRow::At2, cfg, cfg.t).round;
    EXPECT_EQ(stats.max_decision_round, paper)
        << "n=" << cfg.n << " over " << stats.runs << " serial sync runs";
    EXPECT_EQ(stats.min_decision_round, paper)
        << "A_{t+2} (without ff-opt) decides exactly at t+2 in sync runs";
  }
}

TEST(LowerBound, FloodSetExactWorstCaseSyncDecisionRoundIsTPlus1) {
  const SystemConfig cfg{.n = 4, .t = 1};
  SyncRunExplorer explorer(cfg, floodset_factory(),
                           distinct_proposals(cfg.n));
  const auto stats = explorer.explore(cfg.t + 1);
  EXPECT_TRUE(stats.all_ok());
  EXPECT_EQ(stats.max_decision_round,
            price(PriceRow::FloodSet, cfg, cfg.t).round);
}

// ---------------------------------------------------------------------------
// The Fig. 1 construction runs are model-valid and behave as described.
// ---------------------------------------------------------------------------

TEST(LowerBound, Fig1RunsAreModelValid) {
  const SystemConfig cfg{.n = 5, .t = 2};
  const Fig1Runs runs = fig1_construction(cfg, /*prefix=*/{2},
                                          /*p1_prime=*/0, /*pi1_prime=*/1,
                                          /*decision_horizon=*/cfg.t + 6);
  KernelOptions opt{.max_rounds = 64};
  for (const RunSchedule* s :
       {&runs.s1, &runs.s0, &runs.a2, &runs.a1, &runs.a0}) {
    RunResult r =
        run_and_check(cfg, opt, at2(), distinct_proposals(cfg.n), *s);
    EXPECT_TRUE(r.validation.ok()) << r.validation.to_string() << "\n"
                                   << r.trace.to_string();
    EXPECT_TRUE(r.agreement && r.validity && r.termination)
        << r.trace.to_string();
  }
}

TEST(LowerBound, Fig1SerialRunsDifferOnlyAtPi1Prime) {
  // s1 and s0 differ exactly in whether p'_{i+1} gets p'_1's round-t
  // message; every other process receives identical current-round sender
  // sets in rounds 1..t.
  const SystemConfig cfg{.n = 5, .t = 2};
  const ProcessId p1 = 0, pi1 = 1;
  const Fig1Runs runs =
      fig1_construction(cfg, {2}, p1, pi1, cfg.t + 6);
  KernelOptions opt{.max_rounds = 64};
  RunResult r1 = run_and_check(cfg, opt, at2(), distinct_proposals(cfg.n),
                               runs.s1);
  RunResult r0 = run_and_check(cfg, opt, at2(), distinct_proposals(cfg.n),
                               runs.s0);
  for (Round k = 1; k <= cfg.t; ++k) {
    for (ProcessId pid = 0; pid < cfg.n; ++pid) {
      if (pid == pi1 || pid == p1) continue;
      EXPECT_EQ(r1.trace.in_round_senders(pid, k),
                r0.trace.in_round_senders(pid, k))
          << "p" << pid << " round " << k;
    }
  }
  EXPECT_FALSE(r1.trace.in_round_senders(pi1, cfg.t).contains(p1));
  EXPECT_TRUE(r0.trace.in_round_senders(pi1, cfg.t).contains(p1));
}

TEST(LowerBound, Fig1RejectsBadParameters) {
  const SystemConfig cfg{.n = 5, .t = 2};
  EXPECT_THROW(fig1_construction(cfg, {}, 0, 1, 10), std::invalid_argument);
  EXPECT_THROW(fig1_construction(cfg, {2}, 0, 0, 10), std::invalid_argument);
  EXPECT_THROW(fig1_construction(cfg, {0}, 0, 1, 10), std::invalid_argument);
}

}  // namespace
}  // namespace indulgence
