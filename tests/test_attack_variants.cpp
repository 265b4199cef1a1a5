// The adversary search aimed at every production variant: none of the
// shipping configurations may have a findable safety violation, and the
// searches must also respect their own budgets.

#include <gtest/gtest.h>

#include "consensus/hurfin_raynal.hpp"
#include "core/af2.hpp"
#include "core/at2_ds.hpp"
#include "lb/attack.hpp"

namespace indulgence {
namespace {

TEST(AttackVariants, FailureFreeOptimizedAt2Survives) {
  // Fig. 4 adds a decision path at round 2 — the adversary search must not
  // be able to exploit it.
  const SystemConfig cfg{.n = 3, .t = 1};
  At2Options opt;
  opt.failure_free_opt = true;
  const AttackResult attack = search_agreement_violation(
      cfg, at2_factory(hurfin_raynal_factory(), opt));
  EXPECT_FALSE(attack.violation_found)
      << attack.description << "\n" << attack.trace_dump;
  EXPECT_GT(attack.runs_tried, 1000);
}

TEST(AttackVariants, DsVariantSurvives) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const AttackResult attack = search_agreement_violation(
      cfg,
      at2_ds_factory(hurfin_raynal_factory(), receipt_detector_factory()));
  EXPECT_FALSE(attack.violation_found)
      << attack.description << "\n" << attack.trace_dump;
}

TEST(AttackVariants, Af2Survives) {
  const SystemConfig cfg{.n = 4, .t = 1};  // t < n/3
  const AttackResult attack = search_agreement_violation(cfg, af2_factory());
  EXPECT_FALSE(attack.violation_found)
      << attack.description << "\n" << attack.trace_dump;
}

TEST(AttackVariants, HurfinRaynalSurvives) {
  const SystemConfig cfg{.n = 3, .t = 1};
  AttackOptions options;
  options.action_rounds = 4;  // cover two full attempts
  const AttackResult attack =
      search_agreement_violation(cfg, hurfin_raynal_factory(), options);
  EXPECT_FALSE(attack.violation_found)
      << attack.description << "\n" << attack.trace_dump;
}

TEST(AttackVariants, RunBudgetIsHonored) {
  const SystemConfig cfg{.n = 4, .t = 1};
  AttackOptions options;
  options.max_runs = 100;
  const AttackResult attack = search_agreement_violation(
      cfg, at2_factory(hurfin_raynal_factory()), options);
  EXPECT_FALSE(attack.violation_found);
  EXPECT_EQ(attack.runs_tried, 100);
}

TEST(AttackVariants, CustomProposalVectorsAreUsed) {
  const SystemConfig cfg{.n = 3, .t = 1};
  AttackOptions options;
  options.proposal_vectors = {uniform_proposals(cfg.n, 5)};
  // With all-equal proposals even the truncated variant cannot disagree
  // (validity pins the only decidable value).
  const AttackResult attack = search_agreement_violation(
      cfg, at2_truncated_factory(hurfin_raynal_factory()), options);
  EXPECT_FALSE(attack.violation_found)
      << "uniform proposals admit only one decision value";
}

}  // namespace
}  // namespace indulgence
