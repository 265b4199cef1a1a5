// A_{f+2} (paper Fig. 5, Sect. 6): early decision f+2 in synchronous runs,
// eventual fast decision k+f+2 in runs synchronous after round k
// (Lemma 15), termination by K+t+2 (Lemma 16), and the structural contrast
// with the AMR leader baseline (k+2f+2).

#include <gtest/gtest.h>

#include "consensus/amr_leader.hpp"
#include "core/af2.hpp"
#include "core/price.hpp"
#include "lb/explorer.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

// ---------------------------------------------------------------------------
// Early decision: synchronous runs with f crashes decide by round f + 2.
// ---------------------------------------------------------------------------

struct EarlyCase {
  int n;
  int t;
  int f;
};

class Af2EarlyDecision : public ::testing::TestWithParam<EarlyCase> {};

TEST_P(Af2EarlyDecision, HostileSyncSchedulesDecideByFPlus2) {
  const auto [n, t, f] = GetParam();
  const SystemConfig cfg{.n = n, .t = t};
  std::vector<RunSchedule> schedules = hostile_sync_schedules(cfg, f);
  // Only consider schedules whose crashes all land within the first f+1
  // rounds (Lemma 15 with k = 0 assumes f crashes "after round 0"; a
  // crash at round r restarts the f+2 clock only in the k-shifted form).
  std::erase_if(schedules, [&](const RunSchedule& s) {
    return s.last_planned_round() > f + 1;
  });
  const SyncSweep sweep = worst_case_sync_decision_round(
      cfg, KernelOptions{}, af2_factory(), schedules, {distinct_proposals(n)});
  EXPECT_LE(sweep.max_round, price(PriceRow::Af2, cfg, f).round)
      << "crashes=" << f;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Af2EarlyDecision,
    ::testing::Values(EarlyCase{4, 1, 0}, EarlyCase{4, 1, 1},
                      EarlyCase{7, 2, 0}, EarlyCase{7, 2, 1},
                      EarlyCase{7, 2, 2}, EarlyCase{10, 3, 2},
                      EarlyCase{10, 3, 3}, EarlyCase{13, 4, 4}));

TEST(Af2, FailureFreeDecidesInTwoRounds) {
  const SystemConfig cfg{.n = 7, .t = 2};
  RunResult r = run_and_check(cfg, KernelOptions{}, af2_factory(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.global_decision_round, price(PriceRow::Af2, cfg, 0).round);
}

TEST(Af2, ExhaustiveSearchConfirmsFPlus2IsWorstCase) {
  // All delivery patterns of a single crash in round 1 (f = 1): no pattern
  // pushes the decision past round 3.
  const SystemConfig cfg{.n = 4, .t = 1};
  WorstCaseResult w = worst_case_over_deliveries(
      cfg, af2_factory(), distinct_proposals(cfg.n), {{0, 1}});
  EXPECT_TRUE(w.all_ok);
  EXPECT_EQ(w.worst_decision_round, price(PriceRow::Af2, cfg, 1).round);
  EXPECT_EQ(w.runs, 8);  // 2^(n-1) delivery patterns
}

// ---------------------------------------------------------------------------
// Eventual fast decision: synchronous after round k, f crashes after k
// => global decision by k + f + 2 (Lemma 15).
// ---------------------------------------------------------------------------

struct EventualCase {
  Round k;  ///< asynchronous prefix length (GST - 1)
  int f;
};

class Af2EventualDecision : public ::testing::TestWithParam<EventualCase> {};

TEST_P(Af2EventualDecision, DecidesByKPlusFPlus2) {
  const auto [k, f] = GetParam();
  const SystemConfig cfg{.n = 10, .t = 3};
  const RunSchedule s =
      async_prefix_schedule(cfg, /*gst=*/k + 1, ProcessSet{0, 1}, f);
  RunResult r = run_and_check(cfg, KernelOptions{}, af2_factory(),
                              distinct_proposals(cfg.n), s);
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  EXPECT_LE(*r.global_decision_round, price(PriceRow::Af2, cfg, f, k).round)
      << "k=" << k << " f=" << f << "\n" << r.trace.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Af2EventualDecision,
    ::testing::Values(EventualCase{0, 0}, EventualCase{0, 3},
                      EventualCase{2, 0}, EventualCase{2, 2},
                      EventualCase{5, 1}, EventualCase{5, 3},
                      EventualCase{8, 2}));

TEST(Af2, TerminatesByGstPlusTPlus2UnderRandomAdversaries) {
  // Lemma 16's bound: every run decides by K + t + 2.
  const SystemConfig cfg{.n = 7, .t = 2};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RandomEsOptions opt;
    opt.gst = 1 + static_cast<Round>(seed % 9);
    opt.max_delay = 2;
    RandomEsAdversary adversary(cfg, opt, seed * 29 + 1);
    RunResult r = run_and_check(cfg, KernelOptions{}, af2_factory(),
                                distinct_proposals(cfg.n), adversary);
    ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
    ASSERT_TRUE(r.agreement && r.validity && r.termination)
        << "seed " << seed << "\n" << r.trace.to_string();
    // Crash-round messages may be delayed up to max_delay rounds past GST,
    // which in the worst case shifts effective synchrony by max_delay.
    EXPECT_LE(*r.global_decision_round,
              price(PriceRow::Af2, cfg, cfg.t, (opt.gst - 1) + opt.max_delay)
                  .round)
        << "seed " << seed << "\n" << r.trace.to_string();
  }
}

// ---------------------------------------------------------------------------
// The A_{f+2} vs AMR contrast (R9): one round per crash vs one ATTEMPT
// (two rounds) per crash.
// ---------------------------------------------------------------------------

TEST(Af2VsAmr, WorstCaseOverDeliveriesShowsTheGap) {
  const SystemConfig cfg{.n = 8, .t = 2};
  // Two crashes, placed where they hurt AMR most (its adopt rounds).
  const std::vector<CrashSlot> amr_slots{{0, 1}, {1, 3}};
  WorstCaseResult amr = worst_case_over_deliveries(
      cfg, amr_leader_factory(), distinct_proposals(cfg.n), amr_slots,
      /*exhaustive_limit=*/1 << 15, /*samples=*/8192);
  EXPECT_TRUE(amr.all_ok);
  EXPECT_EQ(amr.worst_decision_round, price(PriceRow::Amr, cfg, 2).round)
      << "AMR should have a 2f+2 synchronous run";

  // A_{f+2} under the same crash slots stays within f + 3 (= slot round
  // 3 <= k + f + 1 shifted bound; the canonical f+2 holds when crashes land
  // in the first f rounds, checked separately above).
  WorstCaseResult af2 = worst_case_over_deliveries(
      cfg, af2_factory(), distinct_proposals(cfg.n), amr_slots,
      /*exhaustive_limit=*/1 << 15, /*samples=*/8192);
  EXPECT_TRUE(af2.all_ok);
  EXPECT_LT(af2.worst_decision_round, amr.worst_decision_round);
  EXPECT_LE(af2.worst_decision_round, 2 + 3);
}

TEST(Af2, RejectsTAtLeastNOver3) {
  EXPECT_THROW(Af2(0, SystemConfig{.n = 6, .t = 2}), std::invalid_argument);
  EXPECT_THROW(Af2(0, SystemConfig{.n = 9, .t = 3}), std::invalid_argument);
}

}  // namespace
}  // namespace indulgence
