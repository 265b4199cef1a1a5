// Kernel semantics: send/receive phases, crashes, fates, self-delivery,
// halting dummies, stop conditions — exercised with FloodSet as the
// workload and checked against the independent validator.

#include <gtest/gtest.h>

#include "consensus/floodset.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"
#include "sim/kernel.hpp"
#include "sim/validator.hpp"

namespace indulgence {
namespace {

constexpr KernelOptions kScs{.model = Model::SCS, .max_rounds = 64};

TEST(Kernel, FailureFreeFloodSetDecidesAtTPlus1) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RunResult r = run_and_check(cfg, kScs, floodset_factory(),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::FloodSet, cfg, cfg.t).round);
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    const auto d = r.trace.decision_of(pid);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->value, 0) << "everyone must decide the minimum proposal";
    EXPECT_EQ(d->round, price(PriceRow::FloodSet, cfg, cfg.t).round);
  }
}

TEST(Kernel, StaggeredChainStillDecidesMinimumKnownToSurvivors) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RunResult r = run_and_check(cfg, kScs, floodset_factory(),
                              distinct_proposals(cfg.n),
                              staggered_chain_schedule(cfg, cfg.t));
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.trace.to_string();
  EXPECT_EQ(*r.global_decision_round,
            price(PriceRow::FloodSet, cfg, cfg.t).round);
  // The chain keeps value 0 alive through p1 then p2: survivors decide 0.
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 0);
  }
}

TEST(Kernel, CrashBeforeSendHidesTheValueEntirely) {
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 1, /*before_send=*/true);  // p0 (value 0) dies silently
  RunResult r = run_and_check(cfg, kScs, floodset_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary();
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 1)
        << "value 0 died with p0; minimum surviving proposal is 1";
  }
}

TEST(Kernel, SelfDeliveryIsUnconditional) {
  const SystemConfig cfg{.n = 5, .t = 2};
  // Lose every p1 message in round 1; p1 must still receive its own.
  ScheduleBuilder b(cfg);
  for (ProcessId r = 0; r < cfg.n; ++r) {
    if (r != 1) b.lose(1, r, 1);
  }
  // That would starve others below n - t in ES; run in SCS where loss from a
  // live process is a model violation the validator must flag.
  RunResult r = run_and_check(cfg, kScs, floodset_factory(),
                              distinct_proposals(cfg.n), b.build());
  EXPECT_FALSE(r.validation.ok())
      << "losing a live sender's messages violates SCS";
  EXPECT_TRUE(r.trace.in_round_senders(1, 1).contains(1))
      << "self-delivery must survive the adversary";
}

TEST(Kernel, TraceRecordsCrashAndDeliveries) {
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(3, 2);
  ProcessSet everyone_else = ProcessSet::all(cfg.n);
  everyone_else.erase(3);
  b.losing_to(3, 2, everyone_else);
  RunResult r = run_and_check(cfg, kScs, floodset_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.ok()) << r.summary();
  ASSERT_EQ(r.trace.crashes().size(), 1u);
  EXPECT_EQ(r.trace.crashes()[0].pid, 3);
  EXPECT_EQ(r.trace.crashes()[0].round, 2);
  EXPECT_EQ(r.trace.crashed(), ProcessSet{3});
  // p3's round-2 message went nowhere (and p3 crashed, so not even to self).
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_FALSE(r.trace.in_round_senders(pid, 2).contains(3));
  }
}

TEST(Kernel, EsDelayedMessageArrivesLater) {
  const SystemConfig cfg{.n = 4, .t = 1};
  KernelOptions opt{.max_rounds = 64};
  ScheduleBuilder b(cfg);
  b.gst(3);
  // p0 is a laggard in round 1: its message to p2 arrives in round 2.
  b.delay(0, 2, 1, 2);
  RunResult r = run_and_check(cfg, opt, floodset_factory(),
                              distinct_proposals(cfg.n), b.build());
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  EXPECT_FALSE(r.trace.in_round_senders(2, 1).contains(0))
      << "p2 must suspect p0 in round 1";
  bool delayed_arrival = false;
  for (const DeliveryRecord& d : r.trace.delivered_to(2, 2)) {
    if (d.sender == 0 && d.send_round == 1) delayed_arrival = true;
  }
  EXPECT_TRUE(delayed_arrival);
}

TEST(Kernel, RejectsBottomProposal) {
  const SystemConfig cfg{.n = 3, .t = 1};
  EXPECT_THROW(run_schedule(cfg, kScs, floodset_factory(),
                            {kBottom, 1, 2}, failure_free_schedule(cfg)),
               std::invalid_argument);
}

TEST(Kernel, RejectsWrongProposalCount) {
  const SystemConfig cfg{.n = 3, .t = 1};
  EXPECT_THROW(run_schedule(cfg, kScs, floodset_factory(), {1, 2},
                            failure_free_schedule(cfg)),
               std::invalid_argument);
}

TEST(Kernel, DelayFateInScsIsAProgrammingError) {
  const SystemConfig cfg{.n = 3, .t = 1};
  ScheduleBuilder b(cfg);
  b.delay(0, 1, 1, 2);
  EXPECT_THROW(run_schedule(cfg, kScs, floodset_factory(),
                            {0, 1, 2}, b.build()),
               std::logic_error);
}

TEST(Kernel, UniformProposalsDecideThatValueImmediatelyAtTPlus1) {
  const SystemConfig cfg{.n = 6, .t = 2};
  RunResult r = run_and_check(cfg, kScs, floodset_factory(),
                              uniform_proposals(cfg.n, 42),
                              staggered_chain_schedule(cfg, cfg.t));
  ASSERT_TRUE(r.ok());
  for (ProcessId pid : r.trace.correct()) {
    EXPECT_EQ(r.trace.decision_of(pid)->value, 42);
  }
}

}  // namespace
}  // namespace indulgence
