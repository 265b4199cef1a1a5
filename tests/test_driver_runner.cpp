// The driver runner wires each group in one place: the group's one
// RunControl expedites every hosted replica's transport when the stop is
// requested, and a crashing replica reports itself dead on its own
// transport.  Counting fake transports stand in for the router and the
// socket fabric's per-replica ports.

#include "net/driver_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "fuzz/targets.hpp"

namespace indulgence {
namespace {

/// One replica's transport: hands each copy straight to its peers'
/// mailboxes and counts the control-plane calls it receives.
class CountingTransport final : public Transport {
 public:
  explicit CountingTransport(std::vector<std::unique_ptr<Mailbox>>* mailboxes)
      : mailboxes_(mailboxes) {}

  void dispatch(ProcessId sender, Round round, MessagePtr payload) override {
    for (std::size_t receiver = 0; receiver < mailboxes_->size();
         ++receiver) {
      if (static_cast<ProcessId>(receiver) == sender) continue;
      (*mailboxes_)[receiver]->push(
          NetEnvelope{sender, round, 0, 0, payload});
    }
  }
  void mark_dead(ProcessId pid) override {
    std::lock_guard<std::mutex> lock(mutex_);
    dead_.push_back(pid);
  }
  void expedite() override { expedites_.fetch_add(1); }

  std::vector<ProcessId> dead() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dead_;
  }
  int expedites() const { return expedites_.load(); }

 private:
  std::vector<std::unique_ptr<Mailbox>>* mailboxes_;
  mutable std::mutex mutex_;
  std::vector<ProcessId> dead_;
  std::atomic<int> expedites_{0};
};

/// n replicas of "hr", every one hosted here, each with its own transport.
struct CountedGroup {
  SystemConfig config{.n = 3, .t = 1};
  LiveOptions options;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<CountingTransport>> transports;

  CountedGroup() {
    options.max_rounds = 16;
    options.quorum_grace = std::chrono::milliseconds{1};
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      mailboxes.push_back(make_mailbox(config, options));
      transports.push_back(std::make_unique<CountingTransport>(&mailboxes));
    }
  }

  /// Runs the group to its stop with every replica done after round 1.
  GroupLogs run() {
    std::vector<HostedReplica> replicas;
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      const auto i = static_cast<std::size_t>(pid);
      replicas.push_back(HostedReplica{pid, mailboxes[i].get(),
                                       transports[i].get(), 10 + pid});
    }
    DriverRunner runner;
    runner.add_group(
        0,
        DriverContext{.config = config,
                      .options = &options,
                      .factory = find_fuzz_target("hr")->factory,
                      .done = [](const RoundAlgorithm&) { return true; },
                      .epoch = std::chrono::steady_clock::now()},
        replicas);
    return std::move(runner.run().at(0));
  }
};

TEST(DriverRunner, TheStopExpeditesEveryHostedTransportOnce) {
  CountedGroup group;
  const GroupLogs logs = group.run();
  EXPECT_TRUE(logs.terminated);
  ASSERT_EQ(logs.logs.size(), 3u);
  for (std::size_t pid = 0; pid < logs.logs.size(); ++pid) {
    EXPECT_TRUE(logs.logs[pid].done) << "p" << pid;
    EXPECT_EQ(group.transports[pid]->expedites(), 1) << "p" << pid;
    EXPECT_TRUE(group.transports[pid]->dead().empty()) << "p" << pid;
  }
}

TEST(DriverRunner, ACrashReachesMarkDeadOnTheCrashingReplicasOwnTransport) {
  CountedGroup group;
  group.options.crashes.push_back(CrashInjection{1, 1, false});
  const GroupLogs logs = group.run();
  ASSERT_EQ(logs.logs.size(), 3u);
  ASSERT_TRUE(logs.logs[1].crash.has_value());
  EXPECT_EQ(logs.logs[1].crash->round, 1);
  EXPECT_EQ(group.transports[1]->dead(), std::vector<ProcessId>{1});
  EXPECT_TRUE(group.transports[0]->dead().empty());
  EXPECT_TRUE(group.transports[2]->dead().empty());
}

}  // namespace
}  // namespace indulgence
