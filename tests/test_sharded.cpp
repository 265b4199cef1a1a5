// The sharded multi-group runtime: hash routing and placement invariants,
// G independent groups over a shared group-multiplexed fabric (clean and
// under wire chaos) with every per-group merged trace checked by the
// UNCHANGED per-group Validator, the sharded RSM committing disjoint
// hash-partitioned command streams, and the multi-process shipping path
// (ShardedNode -> ship_and_merge_groups).

#include "net/sharded_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/at2_auth.hpp"
#include "rsm/rsm.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

AlgorithmFactory at2() {
  At2Options ff;
  ff.failure_free_opt = true;
  return at2_factory(hurfin_raynal_factory(), ff);
}

LiveOptions fast_live() {
  LiveOptions live;
  live.quorum_grace = std::chrono::microseconds{200};
  live.max_rounds = 64;
  return live;
}

ShardedOptions base_options(int groups, int nodes) {
  ShardedOptions options;
  options.num_groups = groups;
  options.num_nodes = nodes;
  options.config = SystemConfig{3, 1};
  options.live = fast_live();
  return options;
}

/// What the model owes one group's merged trace whatever the wall clock
/// did: a model-valid trace, agreement and validity.  A decision by every
/// correct replica, by round t + 2 (PAPER.md R2), is owed only when the
/// group's derived GST is 1; a later GST can leave a capped or fixed-round
/// run without one.
void expect_model_guarantees(GroupId g, const RunResult& result,
                             const SystemConfig& cfg) {
  const std::string context = "group " + std::to_string(g) + ", gst " +
                              std::to_string(result.trace.gst()) + "\n" +
                              result.summary() + "\n" +
                              result.validation.to_string();
  EXPECT_TRUE(result.validation.ok()) << context;
  EXPECT_TRUE(result.agreement) << context;
  EXPECT_TRUE(result.validity) << context;
  if (result.trace.gst() == 1) {
    EXPECT_TRUE(result.ok()) << context;
    ASSERT_TRUE(result.global_decision_round.has_value()) << context;
    EXPECT_LE(*result.global_decision_round, cfg.t + 2) << context;
  }
}

GroupProposals distinct_per_group(int n) {
  return [n](GroupId g) {
    std::vector<Value> proposals;
    for (ProcessId pid = 0; pid < n; ++pid) {
      proposals.push_back(1000 * (g + 1) + pid);
    }
    return proposals;
  };
}

// ---------------------------------------------------------------------------
// Routing and placement

TEST(Sharding, KeyRoutingDeterministicInRangeAndSpreading) {
  constexpr int kGroups = 16;
  std::set<GroupId> hit;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const GroupId g = group_for_key(key, kGroups);
    EXPECT_EQ(g, group_for_key(key, kGroups));  // deterministic
    ASSERT_GE(g, 0);
    ASSERT_LT(g, kGroups);
    hit.insert(g);
  }
  // 4096 hashed keys over 16 groups must touch every group.
  EXPECT_EQ(static_cast<int>(hit.size()), kGroups);
  EXPECT_THROW(group_for_key(7, 0), std::invalid_argument);
}

TEST(Sharding, PlacementUsesDistinctNodesAndRotatesLeaders) {
  constexpr int kNodes = 5;
  constexpr int kN = 3;
  std::set<int> leader_nodes;
  for (GroupId g = 0; g < 10; ++g) {
    const std::vector<int> members = group_placement(g, kN, kNodes);
    ASSERT_EQ(static_cast<int>(members.size()), kN);
    std::set<int> distinct(members.begin(), members.end());
    EXPECT_EQ(distinct.size(), members.size()) << "group " << g;
    leader_nodes.insert(members[0]);
  }
  // Round-robin offset: replica 0 of consecutive groups lands on
  // consecutive nodes, so every node leads some group.
  EXPECT_EQ(static_cast<int>(leader_nodes.size()), kNodes);
}

// ---------------------------------------------------------------------------
// In-process sharded runs

TEST(Sharded, EightGroupsOverFourNodesAllValidateIndependently) {
  const ShardedOptions options = base_options(8, 4);
  const ShardedResult result = run_sharded(
      options, [](GroupId) { return at2(); },
      distinct_per_group(options.config.n));
  ASSERT_EQ(static_cast<int>(result.groups.size()), options.num_groups);
  for (const auto& [g, outcome] : result.groups) {
    expect_model_guarantees(g, outcome.result, options.config);
    // Validity: the decided value is one of this group's own proposals.
    for (const DecisionRecord& d : outcome.result.trace.decisions()) {
      EXPECT_GE(d.value, 1000 * (g + 1));
      EXPECT_LT(d.value, 1000 * (g + 1) + options.config.n);
    }
    // The group's own copies crossed the shared fabric.
    const auto& deliveries = outcome.result.trace.deliveries();
    EXPECT_TRUE(std::any_of(deliveries.begin(), deliveries.end(),
                            [](const DeliveryRecord& d) {
                              return d.sender != d.receiver;
                            }))
        << "group " << g;
  }
  EXPECT_EQ(result.counters.demux_drops, 0);
}

TEST(Sharded, SurvivesWireChaosWithEveryGroupStillValid) {
  ShardedOptions options = base_options(6, 3);
  options.socket.chaos.seed = 7;
  options.socket.chaos.until = std::chrono::milliseconds{150};
  options.socket.chaos.reset_prob = 0.02;
  options.socket.chaos.short_write_prob = 0.05;
  options.socket.chaos.connect_fail_prob = 0.1;
  const ShardedResult result = run_sharded(
      options, [](GroupId) { return at2(); },
      distinct_per_group(options.config.n));
  ASSERT_EQ(static_cast<int>(result.groups.size()), options.num_groups);
  for (const auto& [g, outcome] : result.groups) {
    expect_model_guarantees(g, outcome.result, options.config);
  }
}

TEST(Sharded, RsmGroupsCommitDisjointHashPartitionedCommandStreams) {
  constexpr int kGroups = 4;
  constexpr int kKeys = 32;
  ShardedOptions options = base_options(kGroups, 4);
  options.done = [](const RoundAlgorithm& algorithm) {
    const auto* rep = dynamic_cast<const RsmReplica*>(&algorithm);
    return rep && rep->all_slots_committed();
  };

  // Hash-partition the key space across groups, then attach each client
  // key to ONE replica of its group (clients talk to one replica; two
  // replicas queueing the same command would legitimately commit it twice
  // — the RSM is at-least-once per queue, not across queues).
  std::vector<std::vector<Value>> partition(kGroups);
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    partition[static_cast<std::size_t>(group_for_key(key, kGroups))]
        .push_back(static_cast<Value>(key));
  }

  const int n = options.config.n;
  const GroupFactory factory_for = [&partition, n](GroupId g) {
    RsmOptions rsm;
    rsm.num_slots =
        static_cast<int>(partition[static_cast<std::size_t>(g)].size());
    rsm.slot_window = 2;
    return rsm_factory(
        at2(),
        [&partition, g, n](ProcessId pid) {
          const auto& keys = partition[static_cast<std::size_t>(g)];
          std::vector<Value> mine;
          for (std::size_t i = 0; i < keys.size(); ++i) {
            if (static_cast<ProcessId>(i % n) == pid) mine.push_back(keys[i]);
          }
          return mine;
        },
        rsm);
  };
  // Proposals are no-ops: the RSM's client queues are the payload here.
  const GroupProposals no_proposals = [&](GroupId) {
    return std::vector<Value>(static_cast<std::size_t>(n), kNoOpCommand);
  };
  const ShardedResult result =
      run_sharded(options, factory_for, no_proposals);
  EXPECT_TRUE(result.all_valid());

  std::set<Value> committed_everywhere;
  for (const auto& [g, outcome] : result.groups) {
    ASSERT_EQ(static_cast<int>(outcome.algorithms.size()), options.config.n);
    const auto* first =
        dynamic_cast<const RsmReplica*>(outcome.algorithms[0].get());
    ASSERT_NE(first, nullptr);
    EXPECT_TRUE(first->all_slots_committed()) << "group " << g;
    for (ProcessId pid = 1; pid < options.config.n; ++pid) {
      const auto* rep = dynamic_cast<const RsmReplica*>(
          outcome.algorithms[static_cast<std::size_t>(pid)].get());
      ASSERT_NE(rep, nullptr);
      // All replicas of one group agree on the whole committed log.
      EXPECT_EQ(first->log(), rep->log()) << "group " << g << " p" << pid;
    }
    for (const std::optional<Value>& v : first->log()) {
      ASSERT_TRUE(v.has_value());
      // A no-op commit is logged as the proposer's large sentinel value.
      if (*v == kNoOpCommand || *v > kKeys) continue;
      // The committed command belongs to this group's partition...
      EXPECT_EQ(group_for_key(static_cast<std::uint64_t>(*v), kGroups), g);
      // ...and no other group committed it.
      EXPECT_TRUE(committed_everywhere.insert(*v).second) << *v;
    }
  }
}

TEST(Sharded, PipelinedBurstCommitsEveryGroupLog) {
  // The slot_burst knob through the sharded stack: every group runs its
  // whole 4-slot log as one burst over the shared fabric, via the
  // sharded_rsm_factory adaptor, and every merged trace still validates.
  // Replicas agree on every slot they both committed; every slot committed
  // within the round cap is owed only when the group's derived GST is 1.
  constexpr int kGroups = 4;
  constexpr int kSlots = 4;
  ShardedOptions options = base_options(kGroups, 4);
  options.done = [](const RoundAlgorithm& algorithm) {
    const auto* rep = dynamic_cast<const RsmReplica*>(&algorithm);
    return rep && rep->all_slots_committed();
  };

  const int n = options.config.n;
  RsmOptions rsm;
  rsm.num_slots = kSlots;
  rsm.slot_window = 2;
  rsm.slot_burst = kSlots;  // the whole log in flight at once
  const GroupFactory factory_for = sharded_rsm_factory(
      at2(),
      [n](GroupId g, ProcessId pid) {
        std::vector<Value> mine;
        for (int i = 0; i < kSlots; ++i) {
          if (static_cast<ProcessId>(i % n) == pid) {
            mine.push_back(1000 * (g + 1) + i);
          }
        }
        return mine;
      },
      rsm);
  const GroupProposals no_proposals = [&](GroupId) {
    return std::vector<Value>(static_cast<std::size_t>(n), kNoOpCommand);
  };
  const ShardedResult result =
      run_sharded(options, factory_for, no_proposals);
  ASSERT_EQ(static_cast<int>(result.groups.size()), kGroups);
  for (const auto& [g, outcome] : result.groups) {
    const RunResult& run = outcome.result;
    const bool after_gst_1 = run.trace.gst() == 1;
    EXPECT_TRUE(run.validation.ok())
        << "group " << g << "\n" << run.validation.to_string();
    if (after_gst_1) {
      EXPECT_TRUE(run.trace.terminated()) << "group " << g;
    }
    std::vector<std::optional<Value>> agreed(kSlots);
    for (ProcessId pid = 0; pid < n; ++pid) {
      const auto* rep = dynamic_cast<const RsmReplica*>(
          outcome.algorithms[static_cast<std::size_t>(pid)].get());
      ASSERT_NE(rep, nullptr);
      if (after_gst_1) {
        EXPECT_TRUE(rep->all_slots_committed())
            << "group " << g << " p" << pid;
      }
      for (std::size_t slot = 0; slot < rep->log().size(); ++slot) {
        const std::optional<Value>& entry = rep->log()[slot];
        if (!entry) continue;
        std::optional<Value>& first = agreed.at(slot);
        if (!first) first = entry;
        EXPECT_EQ(*first, *entry)
            << "group " << g << " p" << pid << " slot " << slot;
      }
    }
  }
}

/// A plan for p3 that forges p1's copies in rounds 1 and 2.
std::vector<ByzantineInjection> p3_forges_p1() {
  std::vector<ByzantineInjection> plan;
  for (Round k = 1; k <= 2; ++k) {
    ByzantineEvent forge;
    forge.kind = LieKind::Forge;
    forge.liar = 3;
    forge.forged = 1;
    forge.value = -5;
    forge.has_value = true;
    plan.push_back(ByzantineInjection{k, forge});
  }
  return plan;
}

TEST(Sharded, ByzantinePlanInLiveOptionsReachesEveryGroup) {
  ShardedOptions options = base_options(2, 4);
  options.config = SystemConfig{4, 1};
  options.live.byzantine = p3_forges_p1();
  const ShardedResult result =
      run_sharded(options, [](GroupId) { return at2_auth_factory(); },
                  distinct_per_group(options.config.n));
  ASSERT_EQ(static_cast<int>(result.groups.size()), options.num_groups);
  for (const auto& [g, outcome] : result.groups) {
    const RunTrace& trace = outcome.result.trace;
    EXPECT_TRUE(outcome.result.validation.ok())
        << "group " << g << "\n" << outcome.result.validation.to_string();
    EXPECT_TRUE(trace.byzantine().contains(3)) << "group " << g;
    EXPECT_EQ(trace.byzantine().size(), 1) << "group " << g;
    EXPECT_EQ(trace.byzantine_budget(), 1) << "group " << g;
    const auto& deliveries = trace.deliveries();
    EXPECT_TRUE(std::any_of(
        deliveries.begin(), deliveries.end(),
        [](const DeliveryRecord& d) { return d.origin == 3; }))
        << "group " << g << ": no forged copy was delivered";
    std::optional<Value> decided;
    for (const DecisionRecord& d : trace.decisions()) {
      if (d.pid == 3) continue;
      if (!decided) decided = d.value;
      EXPECT_EQ(d.value, *decided) << "group " << g << " p" << d.pid;
    }
  }
}

TEST(Sharded, RejectsLiarsOutOfRangeOrOverTheBudget) {
  ShardedOptions options = base_options(2, 4);
  options.config = SystemConfig{4, 1};
  options.live.byzantine = p3_forges_p1();
  options.live.byzantine[0].event.liar = 4;  // n = 4: no such process
  EXPECT_THROW(run_sharded(options, [](GroupId) { return at2_auth_factory(); },
                           distinct_per_group(options.config.n)),
               std::invalid_argument);
  options.live.byzantine = p3_forges_p1();
  options.live.byzantine[0].event.liar = 2;  // b = 2 liars: 3b >= n
  EXPECT_THROW(run_sharded(options, [](GroupId) { return at2_auth_factory(); },
                           distinct_per_group(options.config.n)),
               std::invalid_argument);
}

TEST(Sharded, RejectsPlacementThatCannotUseDistinctNodes) {
  const ShardedOptions options = base_options(2, 2);  // M < n
  EXPECT_THROW(run_sharded(options, [](GroupId) { return at2(); },
                           distinct_per_group(options.config.n)),
               std::invalid_argument);
}

TEST(Sharded, ARunThatThrowsLeavesNoSocketDirectoryBehind) {
  // The Unix-domain sockets live in a directory the fabric makes under
  // TMPDIR.  A run that throws after its endpoints started — here on a
  // proposal vector one short — must still remove it.
  std::string tmpdir = (std::filesystem::temp_directory_path() /
                        "indulgence-tmpdir-test-XXXXXX")
                           .string();
  ASSERT_NE(::mkdtemp(tmpdir.data()), nullptr);
  const char* saved = std::getenv("TMPDIR");
  const std::optional<std::string> old_tmpdir =
      saved ? std::optional<std::string>(saved) : std::nullopt;
  ::setenv("TMPDIR", tmpdir.c_str(), 1);

  const ShardedOptions options = base_options(2, 3);
  EXPECT_THROW(run_sharded(options, [](GroupId) { return at2(); },
                           [](GroupId) { return std::vector<Value>{1, 2}; }),
               std::invalid_argument);

  if (old_tmpdir) {
    ::setenv("TMPDIR", old_tmpdir->c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  EXPECT_TRUE(std::filesystem::is_empty(tmpdir))
      << std::filesystem::directory_iterator(tmpdir)->path();
  std::filesystem::remove_all(tmpdir);
}

// ---------------------------------------------------------------------------
// Multi-process style shipping (ShardedNode within threads)

TEST(Sharded, ShardedNodesShipPerGroupLogsThatMergeAndValidate) {
  constexpr int kNodes = 3;
  constexpr int kGroups = 5;
  constexpr Round kRounds = 12;
  const SystemConfig cfg{3, 1};

  std::vector<SocketAddress> addresses;
  std::vector<std::unique_ptr<ShardedNode>> nodes;
  AddressResolver resolve = [&addresses](ProcessId node)
      -> std::optional<SocketAddress> {
    return addresses[static_cast<std::size_t>(node)];
  };
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = testing::TempDir();
  for (int node = 0; node < kNodes; ++node) {
    SocketAddress listen = SocketAddress::unix_path(
        dir + "/" + info->name() + "-n" + std::to_string(node) + ".sock");
    nodes.push_back(std::make_unique<ShardedNode>(
        node, kNodes, listen, resolve, SocketTransportOptions{},
        fast_live()));
    addresses.push_back(nodes.back()->listen_address());
  }
  for (GroupId g = 0; g < kGroups; ++g) {
    const std::vector<int> members = group_placement(g, cfg.n, kNodes);
    for (ProcessId pid = 0; pid < cfg.n; ++pid) {
      nodes[static_cast<std::size_t>(members[static_cast<std::size_t>(pid)])]
          ->host(g, cfg, pid, members, at2(), 1000 * (g + 1) + pid);
    }
  }

  std::vector<std::vector<ShippedLog>> shipped(kNodes);
  std::vector<std::thread> threads;
  for (int node = 0; node < kNodes; ++node) {
    threads.emplace_back([&, node] {
      shipped[static_cast<std::size_t>(node)] =
          nodes[static_cast<std::size_t>(node)]->run(kRounds);
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<ShippedLog> all;
  for (auto& part : shipped) {
    for (ShippedLog& log : part) all.push_back(std::move(log));
  }
  ASSERT_EQ(static_cast<int>(all.size()), kGroups * cfg.n);

  const std::map<GroupId, RunResult> results =
      ship_and_merge_groups(std::move(all), /*terminated=*/true);
  ASSERT_EQ(static_cast<int>(results.size()), kGroups);
  for (const auto& [g, result] : results) {
    expect_model_guarantees(g, result, cfg);
  }
}

}  // namespace
}  // namespace indulgence
