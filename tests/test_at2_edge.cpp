// A_{t+2} corner cases beyond the main suite: minimal and large systems,
// delayed Phase-2 and DECIDE traffic, starving crashes at round t+2,
// duplicate proposals, and the interaction of truncation with the
// failure-free optimization.

#include <gtest/gtest.h>

#include "consensus/chandra_toueg.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

AlgorithmFactory at2(At2Options opt = {}) {
  return at2_factory(hurfin_raynal_factory(), opt);
}

TEST(At2Edge, MinimalSystemN3T1) {
  const SystemConfig cfg{.n = 3, .t = 1};
  RunResult r = run_and_check(cfg, KernelOptions{}, at2(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(*r.global_decision_round, price(PriceRow::At2, cfg, 0).round);
}

TEST(At2Edge, LargeSystemN33T16) {
  const SystemConfig cfg{.n = 33, .t = 16};
  RunResult r = run_and_check(cfg, KernelOptions{}, at2(),
                              distinct_proposals(cfg.n),
                              staggered_chain_schedule(cfg, cfg.t));
  ASSERT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(*r.global_decision_round, price(PriceRow::At2, cfg, cfg.t).round);
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0);
  }
}

TEST(At2Edge, CrashAtRoundTPlus2StarvesAProcessIntoTheDecideRelay) {
  // p0 crashes in round t+2 delivering its NEWESTIMATE only to p1: the
  // others decide at t+2, p1... everyone still decides by t+3 and agrees.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, cfg.t + 2);
  ProcessSet lost = ProcessSet::all(cfg.n);
  lost.erase(0);
  lost.erase(1);
  b.losing_to(0, cfg.t + 2, lost);
  RunResult r = run_and_check(cfg, KernelOptions{}, at2(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  EXPECT_LE(*r.global_decision_round,
            price(PriceRow::At2, cfg, 1).latest());
}

TEST(At2Edge, DelayedNewEstimatesForceTheUnderlyingModule) {
  // Two processes' NEWESTIMATE messages (round t+2) are delayed: receivers
  // still see >= n-t messages, but suspicion of the laggards grew Halt sets
  // earlier — the run stays correct either way.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  const Round ne_round = cfg.t + 2;
  for (Round k = 1; k <= ne_round; ++k) {
    for (ProcessId lag : {3, 4}) {
      for (ProcessId rec = 0; rec < cfg.n; ++rec) {
        if (rec != lag) b.delay(lag, rec, k, ne_round + 2);
      }
    }
  }
  b.gst(ne_round + 2);
  RunResult r = run_and_check(cfg, KernelOptions{}, at2(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  EXPECT_TRUE(r.agreement && r.validity && r.termination)
      << r.trace.to_string();
}

TEST(At2Edge, DelayedDecideStillReachesTheStarvedProcess) {
  // All DECIDE messages (round t+3) to p4 are delayed by three rounds; p4
  // must still decide the same value, just later.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  // Starve p4 out of the fast path: delay everyone's NEWESTIMATE to p4...
  // that would break t-resilience (4 > t).  Instead: two laggards through
  // Phase 1 give p4 a BOTTOM, then its DECIDE notices are delayed.
  for (Round k = 1; k <= cfg.t + 1; ++k) {
    for (ProcessId lag : {0, 1}) {
      if (lag != 4) b.delay(lag, 4, k, cfg.t + 6);
    }
  }
  for (ProcessId sender = 0; sender < 4; ++sender) {
    b.delay(sender, 4, cfg.t + 3, cfg.t + 6);
  }
  b.gst(cfg.t + 6);
  RunResult r = run_and_check(cfg, KernelOptions{}, at2(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  ASSERT_TRUE(r.agreement && r.termination) << r.trace.to_string();
}

TEST(At2Edge, DuplicateProposalsAreFine) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RunResult r = run_and_check(cfg, KernelOptions{}, at2(),
                              {7, 3, 7, 3, 7},
                              staggered_chain_schedule(cfg, cfg.t));
  ASSERT_TRUE(r.ok()) << r.summary();
  for (ProcessId pid : r.trace.correct()) {
    const Value v = r.trace.decision_of(pid)->value;
    EXPECT_TRUE(v == 3 || v == 7);
  }
}

TEST(At2Edge, NegativeProposalsWork) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RunResult r = run_and_check(cfg, KernelOptions{}, at2(),
                              {-5, -1, 0, 3, 9},
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok());
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, -5);
  }
}

TEST(At2Edge, FailureFreeOptWithChandraTouegUnderlying) {
  const SystemConfig cfg{.n = 7, .t = 3};
  At2Options opt;
  opt.failure_free_opt = true;
  RunResult r = run_and_check(cfg, KernelOptions{},
                              at2_factory(chandra_toueg_factory(), opt),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::At2FailureFree, cfg, 0).round);
}

TEST(At2Edge, PartialFailureFreeDecisionPropagatesByNotice) {
  // Only SOME processes see the complete round-1 exchange: p0's round-2
  // message to p4 is delayed, so p4 cannot take the Fig. 4 shortcut — but
  // it adopts the deciders' DECIDE notice one round later.
  const SystemConfig cfg{.n = 5, .t = 2};
  At2Options opt;
  opt.failure_free_opt = true;
  ScheduleBuilder b(cfg);
  b.delay(0, 4, 2, 4);
  b.gst(4);
  RunResult r = run_and_check(cfg, KernelOptions{}, at2_factory(
                                  hurfin_raynal_factory(), opt),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  ASSERT_TRUE(r.agreement && r.termination) << r.trace.to_string();
  EXPECT_EQ(r.trace.decision_of(0)->round,
            price(PriceRow::At2FailureFree, cfg, 0).round);
  EXPECT_LE(r.trace.decision_of(4)->round, 4);
  EXPECT_EQ(r.trace.decision_of(4)->value, r.trace.decision_of(0)->value);
}

TEST(At2Edge, AllProcessesCrashButMajoritySurvives) {
  // Exactly t crash before sending anything: survivors must converge on a
  // surviving value.
  const SystemConfig cfg{.n = 7, .t = 3};
  ScheduleBuilder b(cfg);
  for (ProcessId pid = 0; pid < cfg.t; ++pid) b.crash(pid, 1, true);
  RunResult r = run_and_check(cfg, KernelOptions{}, at2(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary();
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, cfg.t)
        << "minimum surviving proposal";
  }
}

}  // namespace
}  // namespace indulgence
