// Mechanism-necessity tests: remove one piece of Fig. 2 at a time and show
// which consensus property it was carrying.  Each ablated variant is fed to
// the same adversary machinery that certifies the full algorithm.

#include <gtest/gtest.h>

#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "lb/attack.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

AlgorithmFactory ablated(At2Options options) {
  return at2_factory(hurfin_raynal_factory(), options);
}

TEST(Ablation, FullAlgorithmSurvivesTheSearchBaseline) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const AttackResult attack =
      search_agreement_violation(cfg, ablated(At2Options{}));
  EXPECT_FALSE(attack.violation_found) << attack.trace_dump;
}

TEST(Ablation, RemovingFalseSuspicionCheckBreaksAgreement) {
  // Without line 10's |Halt| > t test, a process that was isolated during
  // Phase 1 announces its stale minimum as a non-BOTTOM new estimate and
  // the elimination property collapses.
  const SystemConfig cfg{.n = 3, .t = 1};
  At2Options opt;
  opt.ablate_false_suspicion_check = true;
  const AttackResult attack = search_agreement_violation(cfg, ablated(opt));
  ASSERT_TRUE(attack.violation_found)
      << "expected the adversary to split decisions; tried "
      << attack.runs_tried << " runs";
  EXPECT_NE(attack.description.find("agreement"), std::string::npos)
      << attack.description;
}

TEST(Ablation, RemovingHaltExchangeBreaksAgreement) {
  // Without the "p_j suspected me" reports, a falsely suspected process
  // never learns that the rest of the system has written it off: its Halt
  // set stays small, it fails to detect the false suspicion, and two
  // different non-BOTTOM new estimates can survive to round t+2.
  const SystemConfig cfg{.n = 3, .t = 1};
  At2Options opt;
  opt.ablate_halt_exchange = true;
  const AttackResult attack = search_agreement_violation(cfg, ablated(opt));
  EXPECT_TRUE(attack.violation_found)
      << "expected a violation; tried " << attack.runs_tried << " runs";
}

TEST(Ablation, RemovingHaltFilterBreaksTheEliminationProperty) {
  // Without line 34's filter a process keeps accepting estimates from
  // processes it has (mutually) written off, resurrecting values the
  // elimination argument assumed dead: two distinct non-BOTTOM new
  // estimates reach round t+2.  (At this scale the decide layer's
  // "pick any non-BOTTOM" happens to choose consistently, so Lemma 6 —
  // the invariant the filter exists for — is the right thing to test.)
  const SystemConfig cfg{.n = 3, .t = 1};
  At2Options opt;
  opt.ablate_halt_filter = true;
  const AttackResult attack =
      search_violation(cfg, ablated(opt), {}, elimination_violation);
  ASSERT_TRUE(attack.violation_found)
      << "expected an elimination violation; tried " << attack.runs_tried
      << " runs";
  EXPECT_NE(attack.description.find("elimination"), std::string::npos);
}

TEST(Ablation, FullAlgorithmNeverViolatesEliminationInTheSameSpace) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const AttackResult attack = search_violation(cfg, ablated(At2Options{}),
                                               {}, elimination_violation);
  EXPECT_FALSE(attack.violation_found) << attack.description;
}

TEST(Ablation, AblatedVariantsStillFineInPurelySynchronousRuns) {
  // The ablations only matter when false suspicions exist: all three
  // variants still solve consensus at t+2 in synchronous runs (which is
  // exactly why the paper needs asynchronous runs in the lower bound).
  const SystemConfig cfg{.n = 5, .t = 2};
  for (At2Options opt :
       {At2Options{.ablate_halt_exchange = true},
        At2Options{.ablate_false_suspicion_check = true},
        At2Options{.ablate_halt_filter = true}}) {
    const SyncSweep sweep = worst_case_sync_decision_round(
        cfg, KernelOptions{.max_rounds = 128}, ablated(opt),
        hostile_sync_schedules(cfg, cfg.t), {distinct_proposals(cfg.n)});
    EXPECT_LE(sweep.max_round, price(PriceRow::At2, cfg, cfg.t).latest());
  }
}

TEST(Ablation, NamesIdentifyTheAblatedMechanism) {
  const SystemConfig cfg{.n = 5, .t = 2};
  At2Options opt;
  opt.ablate_halt_exchange = true;
  At2 a(0, cfg, hurfin_raynal_factory(), opt);
  EXPECT_NE(a.name().find("-haltxchg"), std::string::npos);
  opt = At2Options{};
  opt.ablate_false_suspicion_check = true;
  At2 b(0, cfg, hurfin_raynal_factory(), opt);
  EXPECT_NE(b.name().find("-fscheck"), std::string::npos);
}

}  // namespace
}  // namespace indulgence
