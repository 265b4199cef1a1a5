// A_<>S (paper Fig. 3, Sect. 4/5.1): the failure-detector variant of
// A_{t+2}.  With the Sect. 4 receipt-simulated detector it must behave
// exactly like A_{t+2}; with scripted (injected) false suspicions it must
// stay safe and keep the fast-decision property in suspicion-free
// synchronous runs.

#include <gtest/gtest.h>

#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/at2_ds.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

AlgorithmFactory at2_receipt_ds() {
  return at2_ds_factory(hurfin_raynal_factory(), receipt_detector_factory());
}

TEST(At2DS, FastDecisionAtTPlus2InSynchronousRuns) {
  for (const SystemConfig cfg : {SystemConfig{.n = 5, .t = 2},
                                 SystemConfig{.n = 7, .t = 3}}) {
    const SyncSweep sweep = worst_case_sync_decision_round(
        cfg, KernelOptions{}, at2_receipt_ds(), all_hostile_sync_schedules(cfg),
        {distinct_proposals(cfg.n)});
    const Price paper = price(PriceRow::At2DS, cfg, cfg.t);
    EXPECT_GE(sweep.min_round, paper.round);
    EXPECT_LE(sweep.max_round, paper.latest());
  }
}

TEST(At2DS, ReceiptDetectorMatchesAt2DecisionForDecision) {
  // Sect. 4's simulation argument: the receipt-simulated detector makes
  // A_<>S behaviourally identical to A_{t+2}.  Compare decision vectors
  // over a pile of seeded random ES runs (same adversary choices: replay
  // through identical seeds).
  const SystemConfig cfg{.n = 5, .t = 2};
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    RandomEsOptions opt;
    opt.gst = 1 + static_cast<Round>(seed % 6);

    RandomEsAdversary adv_a(cfg, opt, seed);
    RunResult a = run_and_check(cfg, KernelOptions{},
                                at2_factory(hurfin_raynal_factory()),
                                distinct_proposals(cfg.n), adv_a);

    RandomEsAdversary adv_b(cfg, opt, seed);  // identical replay
    RunResult b = run_and_check(cfg, KernelOptions{}, at2_receipt_ds(),
                                distinct_proposals(cfg.n), adv_b);

    ASSERT_TRUE(a.validation.ok() && b.validation.ok());
    ASSERT_TRUE(a.agreement && b.agreement);
    for (ProcessId pid = 0; pid < cfg.n; ++pid) {
      const auto da = a.trace.decision_of(pid);
      const auto db = b.trace.decision_of(pid);
      ASSERT_EQ(da.has_value(), db.has_value()) << "seed " << seed;
      if (da) {
        EXPECT_EQ(da->value, db->value) << "seed " << seed;
        EXPECT_EQ(da->round, db->round) << "seed " << seed;
      }
    }
  }
}

TEST(At2DS, ScriptedFalseSuspicionsDelayButNeverBreakConsensus) {
  const SystemConfig cfg{.n = 5, .t = 2};
  // Everybody falsely suspects p0 and p1 throughout Phase 1 even though
  // their messages arrive: the detector lies; the messages are fine.
  std::map<Round, ProcessSet> lies;
  for (Round k = 1; k <= cfg.t + 1; ++k) lies[k] = ProcessSet{0, 1};
  AlgorithmFactory factory = at2_ds_factory(
      hurfin_raynal_factory(), scripted_detector_factory(lies));
  RunResult r = run_and_check(cfg, KernelOptions{}, factory,
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  EXPECT_TRUE(r.agreement && r.validity && r.termination)
      << r.trace.to_string();
}

TEST(At2DS, MassFalseSuspicionForcesBottomAndUnderlyingModule) {
  const SystemConfig cfg{.n = 5, .t = 2};
  // p4 falsely suspects everyone in round 1: its Halt jumps past t, so p4
  // must send BOTTOM at t+2 and the run cannot use the pure fast path for
  // processes that see that BOTTOM.
  std::map<Round, ProcessSet> lies;
  lies[1] = ProcessSet{0, 1, 2, 3};

  AlgorithmFactory factory = [&](ProcessId self, const SystemConfig& c)
      -> std::unique_ptr<RoundAlgorithm> {
    // Only p4's detector lies.
    FailureDetectorFactory fd =
        self == 4 ? scripted_detector_factory(lies)
                  : receipt_detector_factory();
    return std::make_unique<At2DS>(self, c, hurfin_raynal_factory(), fd,
                                   At2Options{});
  };
  AlgorithmInstances instances;
  RunResult r = run_and_check(cfg, KernelOptions{}, factory,
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg), &instances);
  ASSERT_TRUE(r.validation.ok());
  ASSERT_TRUE(r.agreement && r.validity && r.termination)
      << r.trace.to_string();
  const auto* p4 = dynamic_cast<const At2DS*>(instances[4].get());
  ASSERT_NE(p4, nullptr);
  EXPECT_TRUE(p4->detected_false_suspicion())
      << "p4 suspected 4 > t processes, so |Halt| > t must hold";
}

TEST(At2DS, ConsensusUnderRandomAdversariesWithRandomLies) {
  const SystemConfig cfg{.n = 7, .t = 3};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    RandomEsOptions opt;
    opt.gst = 1 + static_cast<Round>(seed % 5);
    RandomEsAdversary adversary(cfg, opt, seed * 37);

    // Deterministic pseudo-random per-process lies in the first t+1 rounds.
    AlgorithmFactory factory = [&, seed](ProcessId self,
                                         const SystemConfig& c)
        -> std::unique_ptr<RoundAlgorithm> {
      std::map<Round, ProcessSet> lies;
      Rng rng(seed * 1000 + self);
      for (Round k = 1; k <= c.t + 1; ++k) {
        ProcessSet s;
        for (ProcessId pid = 0; pid < c.n; ++pid) {
          if (pid != self && rng.chance(1, 5)) s.insert(pid);
        }
        lies[k] = s;
      }
      return std::make_unique<At2DS>(self, c, hurfin_raynal_factory(),
                                     scripted_detector_factory(lies),
                                     At2Options{});
    };
    RunResult r = run_and_check(cfg, KernelOptions{}, factory,
                                distinct_proposals(cfg.n), adversary);
    ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
    ASSERT_TRUE(r.agreement && r.validity && r.termination)
        << "seed " << seed << "\n" << r.trace.to_string();
  }
}

}  // namespace
}  // namespace indulgence
