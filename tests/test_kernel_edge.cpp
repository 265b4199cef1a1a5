// Kernel edge semantics: pending-message lifecycle, crash interactions,
// halted-process dummies, determinism of replayed runs.

#include <gtest/gtest.h>

#include "consensus/floodset.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

constexpr KernelOptions kEs{.max_rounds = 64};

TEST(KernelEdge, PendingMessageToCrashedReceiverIsDropped) {
  const SystemConfig cfg{.n = 4, .t = 1};
  ScheduleBuilder b(cfg);
  b.delay(0, 2, 1, 5);   // p0's round-1 message to p2 due at round 5
  b.crash(2, 3);         // but p2 dies at round 3
  b.gst(5);
  RunResult r = run_and_check(cfg, kEs,
                              at2_factory(hurfin_raynal_factory()),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  // Neither delivered nor pending at end: dropped with its dead receiver.
  for (const DeliveryRecord& d : r.trace.deliveries()) {
    EXPECT_FALSE(d.receiver == 2 && d.sender == 0 && d.send_round == 1 &&
                 d.recv_round >= 3);
  }
  for (const PendingRecord& p : r.trace.pending()) {
    EXPECT_FALSE(p.receiver == 2);
  }
}

TEST(KernelEdge, CrashOfAlreadyDeadProcessIsIgnored) {
  const SystemConfig cfg{.n = 4, .t = 1};
  ScheduleBuilder b(cfg);
  b.crash(1, 1, true);
  b.crash(1, 2, true);  // double-kill: second must be a no-op
  RunResult r = run_and_check(cfg, kEs, floodset_factory(),
                              distinct_proposals(cfg.n), b.build());
  EXPECT_EQ(r.trace.crashes().size(), 1u);
  EXPECT_TRUE(r.validation.ok()) << r.validation.to_string();
}

TEST(KernelEdge, OutOfRangeCrashVictimIsIgnored) {
  const SystemConfig cfg{.n = 4, .t = 1};
  RoundPlan plan;
  plan.add_crash({17, false});
  ScheduleBuilder b(cfg);
  RunSchedule s = b.build();
  s.plan(1).add_crash({17, false});
  RunResult r = run_and_check(cfg, kEs, floodset_factory(),
                              distinct_proposals(cfg.n), s);
  EXPECT_TRUE(r.trace.crashes().empty());
}

TEST(KernelEdge, HaltedProcessKeepsSendingDummiesCarryingItsDecision) {
  // FloodSet halts at t+1; every subsequent round the kernel must emit a
  // HaltedMessage so that the trace stays t-resilient.
  const SystemConfig cfg{.n = 4, .t = 1};
  KernelOptions opt = kEs;
  opt.stop_on_global_decision = false;
  opt.max_rounds = 6;
  RunResult r = run_and_check(cfg, opt, floodset_factory(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  bool dummy_seen = false;
  for (const SendRecord& s : r.trace.sends()) {
    if (s.round > cfg.t + 1) {
      EXPECT_TRUE(s.dummy) << "round " << s.round << " sender " << s.sender;
      dummy_seen = true;
    }
  }
  EXPECT_TRUE(dummy_seen);
  // And the dummies carry the decision.
  bool notice_seen = false;
  for (const DeliveryRecord& d : r.trace.delivered_to(0, cfg.t + 2)) {
    if (const auto* h = dynamic_cast<const HaltedMessage*>(d.payload.get())) {
      EXPECT_EQ(h->decision(), 0);
      notice_seen = true;
    }
  }
  EXPECT_TRUE(notice_seen);
}

TEST(KernelEdge, SameSeedReplaysBitForBit) {
  const SystemConfig cfg{.n = 6, .t = 2};
  auto run_once = [&](std::uint64_t seed) {
    RandomEsOptions opt;
    opt.gst = 4;
    RandomEsAdversary adversary(cfg, opt, seed);
    return run_and_check(cfg, kEs,
                         at2_factory(hurfin_raynal_factory()),
                         distinct_proposals(cfg.n), adversary)
        .trace;
  };
  const RunTrace a = run_once(12345);
  const RunTrace b = run_once(12345);
  EXPECT_EQ(a.to_string(), b.to_string());
  const RunTrace c = run_once(12346);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(KernelEdge, StopOnGlobalDecisionFalseRunsToTheCap) {
  const SystemConfig cfg{.n = 4, .t = 1};
  KernelOptions opt = kEs;
  opt.stop_on_global_decision = false;
  opt.max_rounds = 10;
  RunResult r = run_and_check(cfg, opt, floodset_factory(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  EXPECT_EQ(r.trace.rounds_executed(), 10);
  EXPECT_EQ(*r.trace.global_decision_round(),
            price(PriceRow::FloodSet, cfg, cfg.t).round);
}

TEST(KernelEdge, DecisionsSurviveCrashAfterDeciding) {
  // A process that decides at t+1 and crashes later still counts for
  // uniform agreement (its decision is recorded).
  const SystemConfig cfg{.n = 4, .t = 1};
  KernelOptions opt = kEs;
  opt.stop_on_global_decision = false;
  opt.max_rounds = 5;
  ScheduleBuilder b(cfg);
  b.crash(0, 3, true);  // after FloodSet decided at round 2
  RunResult r = run_and_check(cfg, opt, floodset_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.trace.decision_of(0).has_value());
  EXPECT_EQ(r.trace.decision_of(0)->round,
            price(PriceRow::FloodSet, cfg, cfg.t).round);
  EXPECT_TRUE(r.agreement);
}

TEST(KernelEdge, SelfDeliveryHappensEvenWhenPlanSaysOtherwise) {
  const SystemConfig cfg{.n = 3, .t = 1};
  ScheduleBuilder b(cfg);
  RunSchedule s = b.build();
  s.plan(1).set_fate(0, 0, Fate::lose());  // nonsense: must be ignored
  RunResult r = run_and_check(cfg, kEs, floodset_factory(),
                              distinct_proposals(cfg.n), s);
  EXPECT_TRUE(r.trace.in_round_senders(0, 1).contains(0));
}

TEST(KernelEdge, DelayedDeliveriesArePresentedInSendRoundOrder) {
  const SystemConfig cfg{.n = 4, .t = 1};
  ScheduleBuilder b(cfg);
  b.delay(0, 1, 1, 3);
  b.delay(0, 1, 2, 3);
  b.gst(3);
  RunResult r = run_and_check(cfg, kEs,
                              at2_factory(hurfin_raynal_factory()),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  const auto round3 = r.trace.delivered_to(1, 3);
  Round last_send = 0;
  for (const DeliveryRecord& d : round3) {
    EXPECT_GE(d.send_round, last_send) << "presentation order broken";
    last_send = d.send_round;
  }
}

}  // namespace
}  // namespace indulgence
