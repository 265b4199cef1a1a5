// The client workload subsystem end to end: command codec, ingest
// queues, key-hash routing, and full campaigns over the in-process and
// sharded runtimes with the linearizable-ingest oracle as the judge.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "client/campaign.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "net/sharded_runtime.hpp"

namespace indulgence::client {
namespace {

AlgorithmFactory slot_factory() {
  At2Options ff;
  ff.failure_free_opt = true;
  return at2_factory(hurfin_raynal_factory(), ff);
}

CampaignConfig small_config(CampaignTarget target) {
  CampaignConfig config;
  config.target = target;
  config.config = SystemConfig{3, 1};
  config.slot_factory = slot_factory();
  config.rsm.slot_window = 1;
  config.rsm.slot_burst = 4;
  config.rsm.decide_retention = 8;
  config.live.max_rounds = 6000;
  config.live.seed = 5;
  return config;
}

TEST(ClientWorkload, CommandCodecRoundTrips) {
  const int num_clients = 16;
  std::set<Value> seen;
  for (int client = 0; client < num_clients; ++client) {
    for (long seq : {0L, 1L, 7L, 1000L, 1'000'000L}) {
      const Value v = encode_command(client, seq);
      ASSERT_TRUE(seen.insert(v).second) << "collision at " << v;
      const auto id = decode_command(v, num_clients);
      ASSERT_TRUE(id.has_value());
      EXPECT_EQ(id->client, client);
      EXPECT_EQ(id->seq, seq);
      EXPECT_FALSE(is_rsm_noop(v));
    }
  }
  // Values below 2^16 (kNoOpCommand, kBottom, raw pids) never decode.
  EXPECT_FALSE(decode_command(kNoOpCommand, num_clients).has_value());
  EXPECT_FALSE(decode_command(0, num_clients).has_value());
  EXPECT_FALSE(decode_command(65'535, num_clients).has_value());
  // A command of a client id beyond the fleet never decodes.
  EXPECT_FALSE(
      decode_command(encode_command(num_clients, 3), num_clients).has_value());
}

TEST(ClientWorkload, SeqMajorEncodingInterleavesClients) {
  // The slot algorithms commit the MINIMUM proposed estimate: every
  // command of sequence s must order before every command of sequence
  // s + 1, whatever the client ids — otherwise high-id clients starve.
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      EXPECT_LT(encode_command(a, 3), encode_command(b, 4));
    }
  }
}

TEST(ClientWorkload, IngestQueueIsFifo) {
  IngestQueue queue;
  EXPECT_FALSE(queue.pull().has_value());
  queue.push(encode_command(0, 0));
  queue.push(encode_command(1, 0));
  queue.push(encode_command(0, 1));
  EXPECT_EQ(queue.pushed(), 3);
  EXPECT_EQ(queue.pull(), encode_command(0, 0));
  EXPECT_EQ(queue.pull(), encode_command(1, 0));
  EXPECT_EQ(queue.pull(), encode_command(0, 1));
  EXPECT_FALSE(queue.pull().has_value());
}

TEST(ClientWorkload, RoutingMatchesGroupHashAndStaysInRange) {
  WorkloadOptions w;
  w.num_clients = 4;
  ClientFleet fleet(w, /*num_groups=*/4, /*replicas_per_group=*/3);
  for (int client = 0; client < 4; ++client) {
    for (long seq = 0; seq < 200; ++seq) {
      const Value v = encode_command(client, seq);
      const GroupId g = fleet.group_of(v);
      EXPECT_EQ(g, group_for_key(static_cast<std::uint64_t>(v), 4));
      const ProcessId home = fleet.home_replica_of(v);
      EXPECT_GE(home, 0);
      EXPECT_LT(home, 3);
      // Deterministic: the oracle re-derives the same route post-run.
      EXPECT_EQ(g, fleet.group_of(v));
      EXPECT_EQ(home, fleet.home_replica_of(v));
    }
  }
}

TEST(ClientWorkload, ClosedLoopAckSubmitsItsReplacementBeforeReturning) {
  // The ack path itself keeps the window full: by the time the commit
  // callback returns, the replacement is in the home queue, with no client
  // thread in between.
  WorkloadOptions w;
  w.mode = LoopMode::Closed;
  w.num_clients = 1;
  w.outstanding = 2;
  ClientFleet fleet(w, /*num_groups=*/1, /*replicas_per_group=*/1);
  const RsmCommandSource source = fleet.source_for(0, 0);
  const RsmCommitCallback commit = fleet.commit_for(0, 0);
  fleet.start(std::chrono::steady_clock::now());

  // The client thread's initial fill.
  std::vector<Value> fill;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (fill.size() < 2 && std::chrono::steady_clock::now() < give_up) {
    if (const auto cmd = source()) {
      fill.push_back(*cmd);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  }
  ASSERT_EQ(fill.size(), 2u);
  EXPECT_EQ(fill[0], encode_command(0, 0));
  EXPECT_EQ(fill[1], encode_command(0, 1));

  commit(0, fill[0], 2);
  EXPECT_EQ(source(), encode_command(0, 2));
  EXPECT_FALSE(source().has_value());

  fleet.finish();
  const FleetCounters counts = fleet.counters();
  EXPECT_EQ(counts.submitted, 3);
  EXPECT_EQ(counts.acked, 1);
}

TEST(ClientWorkload, RejectsInvalidOptions) {
  WorkloadOptions w;
  w.num_clients = 0;
  EXPECT_THROW(ClientFleet(w, 1, 3), std::invalid_argument);

  CampaignConfig config = small_config(CampaignTarget::InProcess);
  config.slot_factory = nullptr;
  EXPECT_THROW(run_campaign(config, WorkloadOptions{}),
               std::invalid_argument);
}

TEST(ClientCampaign, ClosedLoopInProcessIsExactlyOnce) {
  WorkloadOptions w;
  w.mode = LoopMode::Closed;
  w.num_clients = 4;
  w.outstanding = 4;
  w.warmup_commands = 50;
  w.measure_commands = 400;
  w.deadline = std::chrono::microseconds{20'000'000};
  w.seed = 3;
  const CampaignReport r =
      run_campaign(small_config(CampaignTarget::InProcess), w);

  EXPECT_TRUE(r.run_valid);
  EXPECT_TRUE(r.terminated);
  EXPECT_TRUE(r.reached_target);
  EXPECT_TRUE(r.oracle.ok());
  EXPECT_GE(r.counts.measured_acked, 400);
  EXPECT_EQ(r.counts.shed, 0);
  EXPECT_EQ(r.counts.abandoned, 0);
  // Exactly-once, cross-checked from the logs: the distinct committed
  // commands are exactly the acks (commit callbacks fire at commit time,
  // so a committed-but-pending command cannot exist after the run).
  EXPECT_EQ(r.oracle.committed_commands,
            r.counts.acked + r.counts.late_acks);
  EXPECT_EQ(r.latency.count(),
            static_cast<std::uint64_t>(r.counts.measured_acked));
  EXPECT_GT(r.latency.quantile(0.5), 0);
}

TEST(ClientCampaign, OpenLoopShedsAtFullWindowInsteadOfQueueing) {
  // Offered far beyond the pending window's drain rate: the fleet must
  // shed (bounded memory), and nothing shed may ever reach the log.
  WorkloadOptions w;
  w.mode = LoopMode::OpenPoisson;
  w.num_clients = 2;
  w.target_rate_per_sec = 50'000;
  w.pending_window = 2;
  w.measure_commands = 150;
  w.deadline = std::chrono::microseconds{15'000'000};
  w.seed = 9;
  const CampaignReport r =
      run_campaign(small_config(CampaignTarget::InProcess), w);

  EXPECT_TRUE(r.run_valid);
  EXPECT_TRUE(r.oracle.ok());  // committed_all_submitted covers shed
  EXPECT_GT(r.counts.shed, 0);
  EXPECT_GT(r.counts.acked, 0);
  // The offered span saw arrivals at roughly the configured rate even
  // though most were shed (that is what makes the loop open).
  EXPECT_GT(r.offered_rate, 10'000.0);
}

TEST(ClientCampaign, ShardedCampaignRoutesByKeyHash) {
  CampaignConfig config = small_config(CampaignTarget::Sharded);
  config.num_groups = 4;
  config.num_nodes = 3;

  WorkloadOptions w;
  w.mode = LoopMode::Closed;
  w.num_clients = 4;
  w.outstanding = 2;
  w.measure_commands = 200;
  w.deadline = std::chrono::microseconds{30'000'000};
  w.seed = 13;
  const CampaignReport r = run_campaign(config, w);

  EXPECT_TRUE(r.run_valid);
  EXPECT_TRUE(r.terminated);
  EXPECT_TRUE(r.reached_target);
  EXPECT_TRUE(r.oracle.ok());
  EXPECT_TRUE(r.oracle.routed_correctly);
  EXPECT_GE(r.oracle.committed_commands, 200);
}

TEST(ClientCampaign, AckTimeoutAbandonsWithoutResubmitting) {
  // A 1 us timeout abandons every command before its commit can land, so
  // all acks arrive late — and exactly-once must still hold, because
  // abandonment frees the window without ever resubmitting.  The round
  // cap is raised well past what the wall deadline admits, so the run is
  // guaranteed to end through the fleet's deadline arm.
  CampaignConfig config = small_config(CampaignTarget::InProcess);
  config.live.max_rounds = 60'000;
  WorkloadOptions w;
  w.mode = LoopMode::Closed;
  w.num_clients = 2;
  w.outstanding = 2;
  w.measure_commands = 100'000;  // unreachable: only late acks accrue
  w.ack_timeout = std::chrono::microseconds{1};
  w.deadline = std::chrono::microseconds{800'000};
  w.seed = 21;
  const CampaignReport r = run_campaign(config, w);

  EXPECT_TRUE(r.run_valid);
  EXPECT_TRUE(r.terminated);  // armed-stop shutdown, not a round-cap abort
  EXPECT_TRUE(r.hit_deadline);
  EXPECT_FALSE(r.reached_target);
  EXPECT_GT(r.counts.late_acks, 0);
  EXPECT_TRUE(r.oracle.no_duplicates);
  EXPECT_TRUE(r.oracle.committed_all_submitted);
  EXPECT_TRUE(r.oracle.no_phantoms);
  EXPECT_EQ(r.oracle.late_committed, r.counts.late_acks);
}

}  // namespace
}  // namespace indulgence::client
