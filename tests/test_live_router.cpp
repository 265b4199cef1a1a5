// The live runtime's fault-injecting router: a copy reaches its receiver's
// mailbox no earlier than its modeled latency, and each receiver gets
// exactly one copy of a broadcast.  The router has no thread: every copy
// sits in its receiver's mailbox when dispatch returns, copies dispatched
// after a receiver died skip it, and expedite releases copies at once.

#include "net/router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "consensus/consensus.hpp"

namespace indulgence {
namespace {

TEST(LiveRouter, NeverReleasesACopyBeforeItsModeledLatency) {
  const SystemConfig cfg{3, 1};
  const auto latency = std::chrono::microseconds{2'000};
  LiveOptions options;
  options.post_gst = LatencyModel{latency, std::chrono::microseconds{0}};
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(16));
  }

  LiveRouter router(cfg, options, mailboxes);
  router.start(std::chrono::steady_clock::now());
  const ProcessId sender = 0;
  const auto dispatched = std::chrono::steady_clock::now();
  router.dispatch(sender, 1, std::make_shared<FillerMessage>());

  // Only a lower bound: a loaded host may deliver late, never early.
  for (ProcessId receiver = 1; receiver < cfg.n; ++receiver) {
    const auto copy =
        mailboxes[static_cast<std::size_t>(receiver)]->pop_for(
            std::chrono::seconds{10});
    const auto arrived = std::chrono::steady_clock::now();
    ASSERT_TRUE(copy.has_value()) << "p" << receiver;
    EXPECT_EQ(copy->sender, sender);
    EXPECT_EQ(copy->send_round, 1);
    EXPECT_GE(arrived - dispatched, latency) << "p" << receiver;
  }

  // Expedited, any second copy would be poppable now; the sender gets none.
  router.expedite();
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_FALSE(mailboxes[static_cast<std::size_t>(pid)]->try_pop())
        << "p" << pid;
  }
}

using std::chrono::microseconds;

std::vector<std::unique_ptr<Mailbox>> mailboxes_for(const SystemConfig& cfg) {
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(16));
  }
  return mailboxes;
}

LiveOptions fixed_latency(microseconds latency) {
  LiveOptions options;
  options.post_gst = LatencyModel{latency, microseconds{0}};
  return options;
}

TEST(LiveRouter, EveryCopyIsInItsMailboxWhenDispatchReturns) {
  const SystemConfig cfg{3, 1};
  auto mailboxes = mailboxes_for(cfg);
  LiveRouter router(cfg, fixed_latency(std::chrono::seconds{10}), mailboxes);
  router.start(std::chrono::steady_clock::now());
  router.dispatch(1, 1, std::make_shared<FillerMessage>());

  // Not due for 10 s, yet already held by each receiver's mailbox.
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_EQ(mailboxes[static_cast<std::size_t>(pid)]->size(),
              pid == 1 ? 0u : 1u)
        << "p" << pid;
  }
}

TEST(LiveRouter, CopiesDispatchedAfterAReceiverDiesSkipIt) {
  const SystemConfig cfg{3, 1};
  auto mailboxes = mailboxes_for(cfg);
  LiveRouter router(cfg, fixed_latency(std::chrono::seconds{10}), mailboxes);
  router.start(std::chrono::steady_clock::now());
  router.dispatch(0, 1, std::make_shared<FillerMessage>());
  router.mark_dead(1);
  router.dispatch(0, 2, std::make_shared<FillerMessage>());

  // The dead receiver keeps only the copy pushed before it died (teardown
  // drains it, and the merge drops it as addressed to a crashed process);
  // the live peer gets both.
  router.expedite();
  Mailbox& dead = *mailboxes[1];
  Mailbox& live = *mailboxes[2];
  const std::vector<NetEnvelope> held = dead.drain();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].send_round, 1);
  for (Round round = 1; round <= 2; ++round) {
    const auto copy = live.try_pop();
    ASSERT_TRUE(copy.has_value()) << "round " << round;
    EXPECT_EQ(copy->sender, 0);
    EXPECT_EQ(copy->send_round, round);
  }
}

TEST(LiveRouter, ExpediteReleasesALongDelayedCopyAtOnce) {
  const SystemConfig cfg{3, 1};
  auto mailboxes = mailboxes_for(cfg);
  LiveRouter router(cfg, fixed_latency(std::chrono::seconds{10}), mailboxes);
  router.start(std::chrono::steady_clock::now());
  router.dispatch(2, 1, std::make_shared<FillerMessage>());
  EXPECT_FALSE(mailboxes[0]->try_pop().has_value());

  router.expedite();
  for (ProcessId receiver = 0; receiver < 2; ++receiver) {
    const auto copy =
        mailboxes[static_cast<std::size_t>(receiver)]->try_pop();
    ASSERT_TRUE(copy.has_value()) << "p" << receiver;
    EXPECT_EQ(copy->sender, 2);
  }
}

}  // namespace
}  // namespace indulgence
