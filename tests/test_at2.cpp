// A_{t+2} (paper Fig. 2): fast decision (Lemma 13), the elimination
// property (Lemma 6), agreement/validity/termination under hostile and
// random ES adversaries, fall-through to the underlying module C, and the
// failure-free optimization (Fig. 4).

#include <gtest/gtest.h>

#include "consensus/chandra_toueg.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

constexpr KernelOptions kEs{.max_rounds = 128};

AlgorithmFactory at2() { return at2_factory(hurfin_raynal_factory()); }

// ---------------------------------------------------------------------------
// Fast decision: every synchronous run decides at round t + 2 — exactly.
// ---------------------------------------------------------------------------

struct FastDecisionCase {
  int n;
  int t;
};

class At2FastDecision : public ::testing::TestWithParam<FastDecisionCase> {};

TEST_P(At2FastDecision, AllHostileSyncSchedulesDecideAtTPlus2) {
  const auto [n, t] = GetParam();
  const SystemConfig cfg{.n = n, .t = t};
  const SyncSweep sweep = worst_case_sync_decision_round(
      cfg, kEs, at2(), all_hostile_sync_schedules(cfg),
      {distinct_proposals(n)});
  // Lemma 13: by t+2, plus the DECIDE relay that finishes a straggler a
  // crash at t+2 starved; A_{t+2} never decides before t+2 without the ff
  // optimization.
  const Price paper = price(PriceRow::At2, cfg, t);
  EXPECT_LE(sweep.max_round, paper.latest());
  EXPECT_GE(sweep.min_round, paper.round);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, At2FastDecision,
    ::testing::Values(FastDecisionCase{3, 1}, FastDecisionCase{4, 1},
                      FastDecisionCase{5, 1}, FastDecisionCase{5, 2},
                      FastDecisionCase{7, 2}, FastDecisionCase{7, 3},
                      FastDecisionCase{9, 4}, FastDecisionCase{13, 6}));

TEST(At2, FailureFreeSyncRunDecidesExactlyAtTPlus2) {
  const SystemConfig cfg{.n = 7, .t = 3};
  RunResult r = run_and_check(cfg, kEs, at2(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(*r.global_decision_round, price(PriceRow::At2, cfg, 0).round);
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0);
  }
}

TEST(At2, DecidesMinimumSurvivingValueUnderChain) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RunResult r = run_and_check(cfg, kEs, at2(),
                              distinct_proposals(cfg.n),
                              staggered_chain_schedule(cfg, cfg.t));
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  // The chain keeps value 0 flowing (p0 -> p1 -> p2), so 0 must win.
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0);
  }
}

// ---------------------------------------------------------------------------
// Elimination property (Lemma 6): in any run, at most one distinct
// non-BOTTOM new-estimate value exists at round t + 2.
// ---------------------------------------------------------------------------

TEST(At2, EliminationPropertyUnderRandomEsAdversaries) {
  const SystemConfig cfg{.n = 5, .t = 2};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RandomEsOptions opt;
    opt.gst = 1 + static_cast<Round>(seed % 7);
    RandomEsAdversary adversary(cfg, opt, seed);

    AlgorithmInstances instances;
    RunResult r = run_and_check(cfg, kEs, at2(),
                                distinct_proposals(cfg.n), adversary,
                                &instances);
    ASSERT_TRUE(r.validation.ok()) << "seed " << seed << "\n"
                                   << r.validation.to_string();
    ASSERT_TRUE(r.agreement && r.validity) << "seed " << seed << "\n"
                                           << r.trace.to_string();

    std::set<Value> non_bottom;
    for (const auto& instance : instances) {
      const auto* p = dynamic_cast<const At2*>(instance.get());
      ASSERT_NE(p, nullptr);
      if (p->new_estimate() && *p->new_estimate() != kBottom) {
        non_bottom.insert(*p->new_estimate());
      }
    }
    EXPECT_LE(non_bottom.size(), 1u)
        << "Lemma 6 violated at seed " << seed << "\n" << r.trace.to_string();
  }
}

TEST(At2, SyncRunsNeverDetectFalseSuspicions) {
  // Claim 13.1: in synchronous runs only crashed processes enter Halt sets,
  // so |Halt| <= t and nobody sends BOTTOM.
  const SystemConfig cfg{.n = 6, .t = 2};
  for (const RunSchedule& schedule : hostile_sync_schedules(cfg, cfg.t)) {
    AlgorithmInstances instances;
    RunResult r = run_and_check(cfg, kEs, at2(),
                                distinct_proposals(cfg.n), schedule,
                                &instances);
    ASSERT_TRUE(r.ok()) << r.summary();
    const ProcessSet crashed = r.trace.crashed();
    for (const auto& instance : instances) {
      const auto* p = dynamic_cast<const At2*>(instance.get());
      ASSERT_NE(p, nullptr);
      if (p->new_estimate()) {
        EXPECT_FALSE(p->detected_false_suspicion()) << r.trace.to_string();
      }
      EXPECT_TRUE(p->halt_set().subset_of(crashed))
          << "Halt may contain only crashed processes in synchronous runs: "
          << p->halt_set().to_string() << " vs crashed "
          << crashed.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Consensus properties under random adversaries (property sweep).
// ---------------------------------------------------------------------------

struct RandomSweepCase {
  int n;
  int t;
  Round gst;
};

class At2RandomSweep : public ::testing::TestWithParam<RandomSweepCase> {};

TEST_P(At2RandomSweep, ConsensusHoldsAndTerminationFollowsGst) {
  const auto [n, t, gst] = GetParam();
  const SystemConfig cfg{.n = n, .t = t};
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    RandomEsOptions opt;
    opt.gst = gst;
    RandomEsAdversary adversary(cfg, opt, seed * 7919 + n * 31 + t);
    RunResult r = run_and_check(cfg, KernelOptions{}, at2(),
                                distinct_proposals(n), adversary);
    ASSERT_TRUE(r.validation.ok())
        << "seed " << seed << ": " << r.validation.to_string();
    ASSERT_TRUE(r.agreement) << "seed " << seed << "\n" << r.trace.to_string();
    ASSERT_TRUE(r.validity) << "seed " << seed << "\n" << r.trace.to_string();
    ASSERT_TRUE(r.termination)
        << "seed " << seed << "\n" << r.trace.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, At2RandomSweep,
    ::testing::Values(RandomSweepCase{3, 1, 1}, RandomSweepCase{3, 1, 5},
                      RandomSweepCase{5, 2, 1}, RandomSweepCase{5, 2, 4},
                      RandomSweepCase{5, 2, 9}, RandomSweepCase{7, 3, 6},
                      RandomSweepCase{9, 4, 3}));

// ---------------------------------------------------------------------------
// Fall-through to the underlying module C.
// ---------------------------------------------------------------------------

TEST(At2, AsyncPrefixForcesUnderlyingConsensusYetAgrees) {
  const SystemConfig cfg{.n = 5, .t = 2};
  // Delay two laggards' messages through round t+2 so that BOTTOM new
  // estimates appear and some processes must fall through to C.
  AlgorithmInstances instances;
  RunResult r = run_and_check(
      cfg, kEs, at2(), distinct_proposals(cfg.n),
      async_prefix_schedule(cfg, /*gst=*/cfg.t + 3, ProcessSet{0, 1}, 0),
      &instances);
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  bool someone_used_underlying = false;
  for (const auto& instance : instances) {
    const auto* p = dynamic_cast<const At2*>(instance.get());
    ASSERT_NE(p, nullptr);
    someone_used_underlying |= p->used_underlying();
  }
  EXPECT_TRUE(someone_used_underlying)
      << "the asynchronous prefix was supposed to defeat the fast path\n"
      << r.trace.to_string();
}

TEST(At2, WorksWithChandraTouegAsUnderlyingModule) {
  // "The fast decision property is achieved by A_{t+2} regardless of the
  // time complexity of C."
  const SystemConfig cfg{.n = 5, .t = 2};
  RunResult r = run_and_check(cfg, kEs,
                              at2_factory(chandra_toueg_factory()),
                              distinct_proposals(cfg.n),
                              staggered_chain_schedule(cfg, cfg.t));
  ASSERT_TRUE(r.ok()) << r.summary();
  EXPECT_LE(*r.global_decision_round,
            price(PriceRow::At2, cfg, cfg.t).latest());
}

// ---------------------------------------------------------------------------
// Failure-free optimization (Fig. 4).
// ---------------------------------------------------------------------------

TEST(At2, FailureFreeOptimizationDecidesAtRound2) {
  const SystemConfig cfg{.n = 7, .t = 3};
  At2Options opt;
  opt.failure_free_opt = true;
  RunResult r = run_and_check(cfg, kEs,
                              at2_factory(hurfin_raynal_factory(), opt),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::At2FailureFree, cfg, 0).round);
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0);
  }
}

TEST(At2, FailureFreeOptimizationFallsBackUnderCrashes) {
  const SystemConfig cfg{.n = 7, .t = 3};
  At2Options opt;
  opt.failure_free_opt = true;
  RunResult r = run_and_check(cfg, kEs,
                              at2_factory(hurfin_raynal_factory(), opt),
                              distinct_proposals(cfg.n),
                              staggered_chain_schedule(cfg, cfg.t));
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  // Suspicions in round 1 disable the shortcut; the normal t+2 path runs.
  const Price paper = price(PriceRow::At2, cfg, cfg.t);
  EXPECT_GE(*r.global_decision_round, paper.round);
  EXPECT_LE(*r.global_decision_round, paper.latest());
}

TEST(At2, FailureFreeOptimizationKeepsAgreementUnderRandomAdversaries) {
  const SystemConfig cfg{.n = 5, .t = 2};
  At2Options at2_opt;
  at2_opt.failure_free_opt = true;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RandomEsOptions opt;
    opt.gst = 1 + static_cast<Round>(seed % 6);
    RandomEsAdversary adversary(cfg, opt, seed * 31 + 5);
    RunResult r = run_and_check(cfg, KernelOptions{},
                                at2_factory(hurfin_raynal_factory(), at2_opt),
                                distinct_proposals(cfg.n), adversary);
    ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
    ASSERT_TRUE(r.agreement && r.validity && r.termination)
        << "seed " << seed << "\n" << r.trace.to_string();
  }
}

// ---------------------------------------------------------------------------
// Construction-time contract checks.
// ---------------------------------------------------------------------------

TEST(At2, RejectsMinorityCorrectConfigurations) {
  const SystemConfig cfg{.n = 4, .t = 2};  // t >= n/2: no indulgent consensus
  EXPECT_THROW(At2(0, cfg, hurfin_raynal_factory()), std::invalid_argument);
}

TEST(At2, RejectsMissingUnderlyingModule) {
  const SystemConfig cfg{.n = 5, .t = 2};
  EXPECT_THROW(At2(0, cfg, AlgorithmFactory{}), std::invalid_argument);
}

}  // namespace
}  // namespace indulgence
