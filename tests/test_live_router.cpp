// The live runtime's fault-injecting router: a copy reaches its receiver's
// mailbox no earlier than its modeled latency, each receiver gets exactly
// one copy of a broadcast, and a stop after every copy landed leaves
// nothing undelivered.

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

  EXPECT_TRUE(router.stop_and_flush().empty());
  // The flush would have pushed any second copy; the sender gets none.
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_FALSE(mailboxes[static_cast<std::size_t>(pid)]->try_pop())
        << "p" << pid;
  }
}

}  // namespace
}  // namespace indulgence
