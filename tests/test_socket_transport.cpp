// The supervised socket transport: backoff math and the reconnect schedule
// under an injected clock, endpoint-level delivery and redelivery, and full
// consensus runs over the in-process socket fabric (LiveRuntime's socket
// transport; the SocketHub test names predate it) — clean and under seeded
// wire chaos, UDS and TCP — judged by the unchanged model validator.

#include "net/socket_transport.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "consensus/floodset.hpp"
#include "fuzz/targets.hpp"
#include "net/runtime.hpp"
#include "sim/harness.hpp"
#include "sim/message.hpp"

namespace indulgence {
namespace {

using namespace std::chrono_literals;
using TimePoint = ReconnectSchedule::TimePoint;

// ---------------------------------------------------------------------------
// Backoff math (pure, no sockets, no sleeping)
// ---------------------------------------------------------------------------

TEST(Backoff, ColdStartIsExactlyTheBaseDelay) {
  BackoffPolicy policy;
  Rng rng = Rng::for_stream(1, 0);
  EXPECT_EQ(next_backoff(policy, std::chrono::microseconds{0}, rng),
            policy.base);
}

TEST(Backoff, DrawsStayWithinTheDecorrelatedEnvelope) {
  BackoffPolicy policy;
  Rng rng = Rng::for_stream(2, 0);
  std::chrono::microseconds prev{0};
  for (int i = 0; i < 200; ++i) {
    const std::chrono::microseconds d = next_backoff(policy, prev, rng);
    EXPECT_GE(d, policy.base) << "iteration " << i;
    EXPECT_LE(d, policy.cap) << "iteration " << i;
    if (prev.count() > 0) {
      EXPECT_LE(d.count(), std::max<std::int64_t>(policy.base.count(),
                                                  3 * prev.count()))
          << "iteration " << i;
    }
    prev = d;
  }
}

TEST(Backoff, CapClampsEvenHugePreviousDelays) {
  BackoffPolicy policy;
  Rng rng = Rng::for_stream(3, 0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(next_backoff(policy, policy.cap * 10, rng), policy.cap);
  }
}

TEST(Backoff, SameSeedSameSchedule) {
  BackoffPolicy policy;
  Rng a = Rng::for_stream(7, 1);
  Rng b = Rng::for_stream(7, 1);
  std::chrono::microseconds prev{2'000};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(next_backoff(policy, prev, a), next_backoff(policy, prev, b));
  }
}

// ---------------------------------------------------------------------------
// ReconnectSchedule under an injected clock
// ---------------------------------------------------------------------------

TEST(ReconnectSchedule, FailureDefersTheNextAttempt) {
  ReconnectSchedule sched(BackoffPolicy{}, 11);
  const TimePoint t0 = TimePoint{} + 1s;
  EXPECT_TRUE(sched.due(t0));
  const TimePoint next = sched.on_failure(t0);
  EXPECT_GT(next, t0);
  EXPECT_FALSE(sched.due(t0));
  EXPECT_FALSE(sched.due(next - 1us));
  EXPECT_TRUE(sched.due(next));
  EXPECT_EQ(sched.failures(), 1);
}

TEST(ReconnectSchedule, DelaysStayInsidePolicyBoundsAcrossAFailureStorm) {
  const BackoffPolicy policy;
  ReconnectSchedule sched(policy, 12);
  TimePoint now = TimePoint{} + 1s;
  for (int i = 0; i < 100; ++i) {
    now = sched.on_failure(now);
    EXPECT_GE(sched.current_delay(), policy.base);
    EXPECT_LE(sched.current_delay(), policy.cap);
  }
  EXPECT_EQ(sched.failures(), 100);
}

TEST(ReconnectSchedule, SuccessResetsTheBackoff) {
  ReconnectSchedule sched(BackoffPolicy{}, 13);
  TimePoint now = TimePoint{} + 1s;
  for (int i = 0; i < 5; ++i) now = sched.on_failure(now);
  EXPECT_GT(sched.current_delay().count(), 0);
  sched.on_success();
  EXPECT_EQ(sched.current_delay().count(), 0);
  EXPECT_TRUE(sched.due(TimePoint{} + 1s));
}

TEST(ReconnectSchedule, ExpediteMakesTheLinkDueImmediately) {
  ReconnectSchedule sched(BackoffPolicy{}, 14);
  const TimePoint t0 = TimePoint{} + 1s;
  sched.on_failure(t0);
  ASSERT_FALSE(sched.due(t0));
  sched.expedite();
  EXPECT_TRUE(sched.due(t0));
}

// ---------------------------------------------------------------------------
// SocketEndpoint plumbing
// ---------------------------------------------------------------------------

std::string fresh_socket_dir() {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "indulgence-sock-test-XXXXXX")
                         .string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed");
  }
  return tmpl;
}

/// Registers replica `pid` of group 0 with `endpoint`, under identity
/// placement: node i hosts replica i.
void host_replica(SocketEndpoint& endpoint, const SystemConfig& cfg,
                  ProcessId pid, Mailbox* inbox) {
  GroupSpec spec;
  spec.config = cfg;
  spec.self = pid;
  for (int node = 0; node < cfg.n; ++node) spec.members.push_back(node);
  spec.inbox = inbox;
  endpoint.add_group(std::move(spec));
}

TEST(SocketEndpoint, DeliversBetweenEndpointsAndDedupsBySequence) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(1024));
    SocketTransportOptions opts;
    opts.seed = 100 + static_cast<std::uint64_t>(pid);
    endpoints.push_back(std::make_unique<SocketEndpoint>(pid, addrs, opts));
    host_replica(*endpoints.back(), cfg, pid, mailboxes.back().get());
  }
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(epoch);

  endpoints[0]->dispatch_group(
      0, 0, 1, std::make_shared<FloodEstimateMessage>(Value{5}));
  for (ProcessId pid = 1; pid < cfg.n; ++pid) {
    auto env = mailboxes[static_cast<std::size_t>(pid)]->pop_for(2s);
    ASSERT_TRUE(env.has_value()) << "p" << pid << " got nothing";
    EXPECT_EQ(env->sender, 0);
    EXPECT_EQ(env->send_round, 1);
    EXPECT_EQ(env->target_round, 0);
    ASSERT_NE(env->payload, nullptr);
    EXPECT_EQ(env->payload->describe(),
              FloodEstimateMessage(Value{5}).describe());
  }

  std::vector<UndeliveredCopy> rest;
  for (auto& ep : endpoints) {
    auto part = ep->stop_and_flush();
    rest.insert(rest.end(), part.begin(), part.end());
  }
  EXPECT_TRUE(rest.empty());
  SocketCounters total;
  for (auto& ep : endpoints) total += ep->counters();
  EXPECT_EQ(total.envelopes_delivered, 2);
  EXPECT_EQ(total.duplicates_dropped, 0);
  endpoints.clear();
  std::filesystem::remove_all(dir);
}

TEST(SocketEndpoint, DispatchRejectsForeignSenders) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  Mailbox mailbox(64);
  SocketEndpoint ep(0, addrs, SocketTransportOptions{});
  host_replica(ep, cfg, 0, &mailbox);
  EXPECT_THROW(ep.dispatch_group(0, 1, 1, std::make_shared<FillerMessage>()),
               std::logic_error);
  ep.stop_and_flush();
  std::filesystem::remove_all(dir);
}

TEST(SocketEndpoint, TcpListenerResolvesEphemeralPort) {
  SocketEndpoint ep(
      0, 3, SocketAddress::tcp_loopback(0),
      [](ProcessId) -> std::optional<SocketAddress> { return std::nullopt; },
      SocketTransportOptions{});
  EXPECT_GT(ep.listen_address().port, 0);
  ep.stop_and_flush();
}

// ---------------------------------------------------------------------------
// Counter attribution: per-link vs per-group
// ---------------------------------------------------------------------------

TEST(SocketEndpoint, ChaosOnOneLinkIsNotChargedToGroupsThatAvoidIt) {
  // Four nodes, two overlapping groups on one fabric:
  //   group 1 on nodes {0, 1, 2},  group 2 on nodes {0, 2, 3}.
  // Injected resets are confined (only_node) to node 0's link towards
  // node 1 — a link only group 1 uses.  The regression this pins: link
  // trouble must land in LinkCounters of THAT link, and the redelivery
  // fallout must never leak into group 2's per-group counters, because
  // group 2 never puts a byte on the chaotic link.
  const int kNodes = 4;
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < kNodes; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/n" + std::to_string(i) + ".sock"));
  }

  // members[pid] = hosting node.
  const std::vector<int> group1_nodes = {0, 1, 2};
  const std::vector<int> group2_nodes = {0, 2, 3};
  auto local_pid = [](const std::vector<int>& members,
                      int node) -> ProcessId {
    for (ProcessId pid = 0; pid < static_cast<ProcessId>(members.size());
         ++pid) {
      if (members[static_cast<std::size_t>(pid)] == node) return pid;
    }
    return -1;
  };

  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (int node = 0; node < kNodes; ++node) {
    SocketTransportOptions opts;
    opts.seed = 500 + static_cast<std::uint64_t>(node);
    if (node == 0) {
      opts.chaos.seed = 77;
      opts.chaos.until = 300ms;
      opts.chaos.reset_prob = 0.9;
      opts.chaos.only_node = 1;
    }
    endpoints.push_back(
        std::make_unique<SocketEndpoint>(node, addrs, opts));
    for (GroupId g : {1, 2}) {
      const auto& members = g == 1 ? group1_nodes : group2_nodes;
      const ProcessId self = local_pid(members, node);
      if (self < 0) continue;
      mailboxes.push_back(std::make_unique<Mailbox>(1024));
      GroupSpec spec;
      spec.group = g;
      spec.config = cfg;
      spec.self = self;
      spec.members = members;
      spec.inbox = mailboxes.back().get();
      endpoints.back()->add_group(std::move(spec));
    }
  }
  // Mailboxes, in endpoint construction order:
  //   n0: [0]=g1/p0  [1]=g2/p0   n1: [2]=g1/p1
  //   n2: [3]=g1/p2  [4]=g2/p1   n3: [5]=g2/p2
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(epoch);

  constexpr int kSends = 25;
  for (Round k = 1; k <= kSends; ++k) {
    endpoints[0]->dispatch_group(1, 0, k,
                                 std::make_shared<FloodEstimateMessage>(k));
    endpoints[0]->dispatch_group(2, 0, k,
                                 std::make_shared<FloodEstimateMessage>(k));
  }
  // Every broadcast must eventually land despite the resets: group 1 at
  // n1/n2, group 2 at n2/n3.  (The chaotic link redelivers after its
  // reconnects; the clean links are unaffected.)
  for (std::size_t box : {2u, 3u, 4u, 5u}) {
    for (int i = 0; i < kSends; ++i) {
      ASSERT_TRUE(mailboxes[box]->pop_for(5s).has_value())
          << "mailbox " << box << " copy " << i;
    }
  }
  for (auto& ep : endpoints) ep->stop_and_flush();

  // The chaos fired, on the one link it was scoped to — and nowhere else.
  const LinkCounters to1 = endpoints[0]->link_counters(1);
  EXPECT_GT(to1.injected_resets, 0);
  EXPECT_GT(to1.reconnects, 0);
  EXPECT_GT(to1.envelopes_resent, 0);
  for (int peer : {2, 3}) {
    const LinkCounters clean = endpoints[0]->link_counters(peer);
    EXPECT_EQ(clean.injected_resets, 0) << "link to " << peer;
    EXPECT_EQ(clean.injected_connect_failures, 0) << "link to " << peer;
    EXPECT_EQ(clean.envelopes_resent, 0) << "link to " << peer;
  }

  // Group 2 never touched the chaotic link: its per-group accounting on
  // every hosting node must look like a clean run — exactly kSends copies
  // to each of its two remote members, none of them re-deliveries.
  GroupCounters group2;
  for (int node : group2_nodes) {
    group2 += endpoints[static_cast<std::size_t>(node)]->group_counters(2);
  }
  EXPECT_EQ(group2.envelopes_sent, 2 * kSends);
  EXPECT_EQ(group2.envelopes_delivered, 2 * kSends);
  EXPECT_EQ(group2.duplicates_dropped, 0);

  // Group 1 rode the chaotic link, so its deliveries survived resends:
  // same copies delivered, with any duplicates filtered by seq dedup.
  GroupCounters group1;
  for (int node : group1_nodes) {
    group1 += endpoints[static_cast<std::size_t>(node)]->group_counters(1);
  }
  EXPECT_EQ(group1.envelopes_sent, 2 * kSends);
  EXPECT_EQ(group1.envelopes_delivered, 2 * kSends);

  endpoints.clear();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Full consensus runs over the in-process fabric
// ---------------------------------------------------------------------------

RunResult run_over_fabric(SocketAddress::Kind kind,
                          const SocketTransportOptions& socket_options,
                          SocketCounters* counters_out) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const FuzzTarget* target = find_fuzz_target("hr");
  EXPECT_NE(target, nullptr);
  LiveOptions options;
  options.max_rounds = 64;
  LiveRuntime runtime(cfg, options);
  runtime.use_socket_transport(kind, socket_options);
  RunResult result =
      runtime.run(target->factory, distinct_proposals(cfg.n));
  if (counters_out) *counters_out = runtime.socket_counters();
  return result;
}

TEST(SocketHub, CleanUdsRunSatisfiesTheValidator) {
  SocketCounters counters;
  SocketTransportOptions opts;
  opts.seed = 21;
  const RunResult result =
      run_over_fabric(SocketAddress::Kind::Unix, opts, &counters);
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
  EXPECT_GT(counters.envelopes_delivered, 0);
  EXPECT_EQ(counters.injected_resets, 0);
}

TEST(SocketHub, CleanTcpRunSatisfiesTheValidator) {
  SocketCounters counters;
  SocketTransportOptions opts;
  opts.seed = 22;
  const RunResult result =
      run_over_fabric(SocketAddress::Kind::Tcp, opts, &counters);
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
  EXPECT_GT(counters.envelopes_delivered, 0);
}

TEST(SocketHub, ChaoticUdsRunStillDecidesAndValidates) {
  // Heavy seeded chaos for the first 400ms: resets, stalls, short writes,
  // failed connects, accept-close.  Indulgence prices this as delay, never
  // as loss — the run must still terminate and the merged trace must still
  // satisfy the unchanged validator with a derived GST.
  SocketTransportOptions opts;
  opts.seed = 23;
  opts.chaos.seed = 99;
  opts.chaos.until = 400ms;
  opts.chaos.connect_fail_prob = 0.3;
  opts.chaos.accept_close_prob = 0.2;
  opts.chaos.reset_prob = 0.15;
  opts.chaos.stall_prob = 0.2;
  opts.chaos.stall = 2ms;
  opts.chaos.short_write_prob = 0.3;
  SocketCounters counters;
  const RunResult result =
      run_over_fabric(SocketAddress::Kind::Unix, opts, &counters);
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
  const long injected = counters.injected_resets + counters.injected_stalls +
                        counters.injected_short_writes +
                        counters.injected_connect_failures +
                        counters.injected_accept_closes;
  EXPECT_GT(injected, 0) << "chaos layer never fired";
}

TEST(SocketHub, ResendsUnderResetChaosNeverDoubleCountTowardTheQuorum) {
  // Reset-heavy chaos forces the reliable channels to replay their send
  // windows on reconnect, so some envelopes genuinely travel twice.  A
  // duplicate copy reaching a driver must not count a second time toward
  // the n - t quorum gate (the old per-envelope counting could close a
  // round one real sender short); the validator's reliable-channel and
  // t-resilience checks over the merged trace are exactly the "round did
  // not close early" assertion.
  SocketTransportOptions opts;
  opts.seed = 31;
  opts.chaos.seed = 313;
  opts.chaos.until = 300ms;
  opts.chaos.reset_prob = 0.9;
  SocketCounters counters;
  const RunResult result =
      run_over_fabric(SocketAddress::Kind::Unix, opts, &counters);
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
  EXPECT_GT(counters.injected_resets, 0) << "chaos never reset a link";
  EXPECT_GT(counters.envelopes_resent, 0) << "no resend was forced";
}

// ---------------------------------------------------------------------------
// Batched flush: resume arithmetic, timeout budgets, keepalive boundaries
// ---------------------------------------------------------------------------

TEST(FlushResumeIndex, ArithmeticCoversTheStateSpace) {
  // Empty queue: nothing to skip.
  EXPECT_EQ(flush_resume_index(1, 0, 0), 0u);
  // Nothing acked/flushed yet (sent_up_to below the front): start at 0.
  EXPECT_EQ(flush_resume_index(5, 4, 0), 0u);
  EXPECT_EQ(flush_resume_index(5, 4, 4), 0u);
  // Mid-queue resume: seqs [5..8], flushed through 6 -> resume at index 2.
  EXPECT_EQ(flush_resume_index(5, 4, 6), 2u);
  // Fully flushed (and anything beyond): resume == size, i.e. no work.
  EXPECT_EQ(flush_resume_index(5, 4, 8), 4u);
  EXPECT_EQ(flush_resume_index(5, 4, 100), 4u);
  // Seq 0 front with first frame flushed.
  EXPECT_EQ(flush_resume_index(0, 3, 0), 1u);
}

TEST(Keepalive, BoundariesAreStrictAndSilenceOutranksHeartbeat) {
  SocketTransportOptions opts;
  opts.heartbeat_every = std::chrono::microseconds{25'000};
  opts.peer_silence = std::chrono::microseconds{150'000};
  const auto t0 = std::chrono::steady_clock::time_point{} +
                  std::chrono::seconds{10};

  // Fresh traffic in both directions: nothing owed.
  EXPECT_EQ(keepalive_action(t0, t0, t0, opts), KeepaliveAction::None);
  // Exactly at the heartbeat interval: strict >, still nothing owed.
  EXPECT_EQ(keepalive_action(t0 + opts.heartbeat_every, t0, t0, opts),
            KeepaliveAction::None);
  // One tick past it: heartbeat due.
  EXPECT_EQ(keepalive_action(
                t0 + opts.heartbeat_every + std::chrono::microseconds{1}, t0,
                t0, opts),
            KeepaliveAction::Heartbeat);
  // Exactly at peer_silence: strict >, the rx side is still in grace (but
  // tx is long idle, so a heartbeat is owed).
  EXPECT_EQ(keepalive_action(t0 + opts.peer_silence, t0, t0, opts),
            KeepaliveAction::Heartbeat);
  // Past peer_silence: redial, even though a heartbeat is also overdue —
  // silence outranks keep-alive.
  EXPECT_EQ(keepalive_action(
                t0 + opts.peer_silence + std::chrono::microseconds{1}, t0, t0,
                opts),
            KeepaliveAction::Redial);
  // Recent rx keeps the link alive no matter how stale tx is.
  EXPECT_EQ(keepalive_action(t0 + std::chrono::seconds{5},
                             t0 + std::chrono::seconds{5} -
                                 std::chrono::microseconds{1},
                             t0, opts),
            KeepaliveAction::Heartbeat);
}

TEST(WriteAllUntil, WholeBufferChargedAgainstOneDeadline) {
  // Fill a socketpair until the kernel buffer is solid, then try to push
  // one more chunk with a short deadline: the old code charged one
  // send_timeout PER write_all call (per byte on the dribble path); the
  // budget fix must give up when the single absolute deadline passes.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK), 0);
  std::vector<std::uint8_t> junk(1 << 16, 0xcd);
  while (::send(fds[0], junk.data(), junk.size(), MSG_NOSIGNAL) > 0) {
  }
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds{50};
  EXPECT_FALSE(write_all_until(fds[0], junk.data(), junk.size(), deadline));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Generous ceiling: well under even TWO stacked budgets, so a per-call
  // (let alone per-byte) timeout regression fails loudly.
  EXPECT_LT(elapsed, std::chrono::milliseconds{500});
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WriteAllUntil, DrainedPeerLetsTheWriteFinish) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<std::uint8_t> payload(1 << 20, 0xee);
  std::thread drain([&] {
    std::vector<std::uint8_t> sink(1 << 16);
    std::size_t got = 0;
    while (got < payload.size()) {
      const ssize_t n = ::recv(fds[1], sink.data(), sink.size(), 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{5};
  EXPECT_TRUE(
      write_all_until(fds[0], payload.data(), payload.size(), deadline));
  ::close(fds[0]);
  drain.join();
  ::close(fds[1]);
}

TEST(SocketEndpoint, DeepBacklogFlushesLinearlyAndCoalesced) {
  // The resend-scan regression test: queue a 10k-envelope backlog BEFORE
  // the supervisors start, so the first flush cycles face the whole pile.
  // The old per-frame find_if from begin() made this quadratic in the
  // backlog and the old write loop spent one syscall per frame; the fix
  // must deliver every copy, promptly, at >= 4 frames per flush syscall.
  constexpr int kBacklog = 10'000;
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(kBacklog + 64));
    SocketTransportOptions opts;
    opts.seed = 700 + static_cast<std::uint64_t>(pid);
    endpoints.push_back(std::make_unique<SocketEndpoint>(pid, addrs, opts));
    host_replica(*endpoints.back(), cfg, pid, mailboxes.back().get());
  }
  for (int i = 0; i < kBacklog; ++i) {
    endpoints[0]->dispatch_group(
        0, 0, 1, std::make_shared<FloodEstimateMessage>(Value{i}));
  }

  const auto start = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(start);
  const long expected = static_cast<long>(kBacklog) * (cfg.n - 1);
  const auto deadline = start + std::chrono::seconds{30};
  while (std::chrono::steady_clock::now() < deadline) {
    const SocketCounters c = endpoints[0]->counters();
    if (c.envelopes_sent + c.envelopes_resent >= expected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  std::vector<UndeliveredCopy> rest;
  for (auto& ep : endpoints) {
    auto part = ep->stop_and_flush();
    rest.insert(rest.end(), part.begin(), part.end());
  }
  EXPECT_TRUE(rest.empty());
  SocketCounters total;
  for (auto& ep : endpoints) total += ep->counters();
  EXPECT_EQ(total.envelopes_sent + total.envelopes_resent, expected);
  EXPECT_EQ(total.envelopes_delivered, expected);
  ASSERT_GT(total.flush_syscalls, 0);
  const double frames_per_syscall =
      static_cast<double>(total.envelopes_sent + total.envelopes_resent) /
      static_cast<double>(total.flush_syscalls);
  EXPECT_GE(frames_per_syscall, 4.0);
  // Linear-time guard: 20k copies over loopback UDS take well under a
  // second batched; the quadratic rescan blew past this by orders of
  // magnitude.  Generous for slow CI machines.
  EXPECT_LT(elapsed, std::chrono::seconds{20});
  endpoints.clear();
  std::filesystem::remove_all(dir);
}

TEST(SocketEndpoint, ChaosDribbleDeliversWithinPerFrameBudgets) {
  // Short-write chaos on every frame, byte-at-a-time: with the per-byte
  // timeout bug each dribbled frame could stall up to frame_len *
  // send_timeout; with one deadline per frame the whole exchange still
  // completes promptly and correctly.
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  constexpr int kMessages = 50;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(1024));
    SocketTransportOptions opts;
    opts.seed = 800 + static_cast<std::uint64_t>(pid);
    opts.chaos.seed = 900 + static_cast<std::uint64_t>(pid);
    opts.chaos.until = std::chrono::hours{1};  // chaos for the whole test
    opts.chaos.short_write_prob = 1.0;         // dribble EVERY frame
    endpoints.push_back(std::make_unique<SocketEndpoint>(pid, addrs, opts));
    host_replica(*endpoints.back(), cfg, pid, mailboxes.back().get());
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(start);
  for (int i = 0; i < kMessages; ++i) {
    endpoints[0]->dispatch_group(
        0, 0, 1, std::make_shared<FloodEstimateMessage>(Value{i}));
  }
  for (ProcessId pid = 1; pid < cfg.n; ++pid) {
    for (int i = 0; i < kMessages; ++i) {
      auto env = mailboxes[static_cast<std::size_t>(pid)]->pop_for(
          std::chrono::seconds{30});
      ASSERT_TRUE(env.has_value()) << "p" << pid << " message " << i;
      EXPECT_EQ(env->payload->describe(),
                FloodEstimateMessage(Value{i}).describe());
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  SocketCounters total;
  std::vector<UndeliveredCopy> rest;
  for (auto& ep : endpoints) {
    auto part = ep->stop_and_flush();
    rest.insert(rest.end(), part.begin(), part.end());
  }
  for (auto& ep : endpoints) total += ep->counters();
  EXPECT_TRUE(rest.empty());
  EXPECT_GT(total.injected_short_writes, 0) << "dribble path never exercised";
  // ~37-byte frames at 100% short-write probability: the per-byte budget
  // bug allowed minutes; one deadline per frame keeps this in seconds.
  EXPECT_LT(elapsed, std::chrono::seconds{60});
  endpoints.clear();
  std::filesystem::remove_all(dir);
}

TEST(SocketHub, At2RunsOverSocketsToo) {
  const SystemConfig cfg{.n = 4, .t = 1};
  const FuzzTarget* target = find_fuzz_target("at2");
  ASSERT_NE(target, nullptr);
  LiveOptions options;
  options.max_rounds = 64;
  LiveRuntime runtime(cfg, options);
  SocketTransportOptions opts;
  opts.seed = 24;
  runtime.use_socket_transport(SocketAddress::Kind::Unix, opts);
  const RunResult result =
      runtime.run(target->factory, distinct_proposals(cfg.n));
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
}

}  // namespace
}  // namespace indulgence
