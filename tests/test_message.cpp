// Message payloads, envelopes, and the harness-level helpers.

#include <gtest/gtest.h>

#include "consensus/consensus.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"
#include "sim/message.hpp"

namespace indulgence {
namespace {

TEST(Message, EnvelopeDowncasting) {
  Envelope env{2, 5, std::make_shared<DecideMessage>(42)};
  ASSERT_NE(env.as<DecideMessage>(), nullptr);
  EXPECT_EQ(env.as<DecideMessage>()->value(), 42);
  EXPECT_EQ(env.as<HaltedMessage>(), nullptr);
  EXPECT_EQ(env.as<At2EstimateMessage>(), nullptr);
}

TEST(Message, CurrentRoundSendersFiltersBySendRound) {
  Delivery delivery;
  auto payload = std::make_shared<FillerMessage>();
  delivery.push_back({0, 3, payload});
  delivery.push_back({1, 2, payload});  // delayed round-2 message
  delivery.push_back({2, 3, payload});
  const auto senders = current_round_senders(delivery, 3);
  EXPECT_EQ(senders, (std::vector<ProcessId>{0, 2}));
}

TEST(Message, DescribeStringsAreUseful) {
  EXPECT_EQ(HaltedMessage(7).describe(), "HALTED(decided=7)");
  EXPECT_EQ(DecideMessage(3).describe(), "DECIDE(3)");
  EXPECT_EQ(FillerMessage().describe(), "FILLER");
  At2EstimateMessage est(5, ProcessSet{1});
  EXPECT_NE(est.describe().find("est=5"), std::string::npos);
  EXPECT_NE(est.describe().find("p1"), std::string::npos);
  At2NewEstimateMessage bottom(kBottom);
  EXPECT_NE(bottom.describe().find("BOTTOM"), std::string::npos);
}

TEST(Message, FindDecideNoticeSeesBothKinds) {
  Delivery delivery;
  delivery.push_back({0, 1, std::make_shared<FillerMessage>()});
  EXPECT_EQ(find_decide_notice(delivery), std::nullopt);
  delivery.push_back({1, 1, std::make_shared<HaltedMessage>(9)});
  EXPECT_EQ(find_decide_notice(delivery), std::optional<Value>{9});
  delivery.clear();
  delivery.push_back({2, 1, std::make_shared<DecideMessage>(4)});
  EXPECT_EQ(find_decide_notice(delivery), std::optional<Value>{4});
}

TEST(Harness, RunResultSummaryMentionsEveryProperty) {
  const SystemConfig cfg{.n = 5, .t = 2};
  KernelOptions options{.max_rounds = 64};
  RunResult r = run_and_check(cfg, options,
                              at2_factory(hurfin_raynal_factory()),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  const std::string s = r.summary();
  EXPECT_NE(s.find("decision_round=4"), std::string::npos);
  EXPECT_NE(s.find("agreement=ok"), std::string::npos);
  EXPECT_NE(s.find("validity=ok"), std::string::npos);
  EXPECT_NE(s.find("termination=ok"), std::string::npos);
  EXPECT_NE(s.find("model=valid"), std::string::npos);
}

TEST(Harness, WorstCaseSyncDecisionRoundMatchesE1) {
  const SystemConfig cfg{.n = 5, .t = 2};
  const SyncSweep sweep = worst_case_sync_decision_round(
      cfg, KernelOptions{}, at2_factory(hurfin_raynal_factory()),
      hostile_sync_schedules(cfg, cfg.t), {distinct_proposals(cfg.n)});
  EXPECT_EQ(sweep.max_round, price(PriceRow::At2, cfg, cfg.t).round);
}

TEST(Harness, RoundCapYieldsTerminationFailureNotCrash) {
  const SystemConfig cfg{.n = 5, .t = 2};
  KernelOptions options{.max_rounds = 2};  // far too short for A_{t+2}
  RunResult r = run_and_check(cfg, options,
                              at2_factory(hurfin_raynal_factory()),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  EXPECT_FALSE(r.termination);
  EXPECT_FALSE(r.global_decision_round.has_value());
  EXPECT_FALSE(r.trace.terminated());
  EXPECT_TRUE(r.agreement) << "no decisions, so trivially agreeing";
}

}  // namespace
}  // namespace indulgence
