// The sharded multi-group runtime: G independent consensus groups (each an
// n-replica RSM or single-shot instance) multiplexed over M node endpoints
// of the group-aware socket transport.
//
// Sharding is the standard throughput move for an RSM — partition the key
// space, run one consensus group per partition — and the paper's price
// (t + 2 rounds per indulgent instance, A_{t+2}) is paid *per group*, so
// aggregate commits/s scales with G while every group's trace individually
// satisfies the unchanged per-group Validator.  The layering is:
//
//   key --group_for_key--> GroupId --placement--> n distinct nodes
//   RoundDriver (per replica, unchanged)  -->  GroupPort (per group view)
//     --> SocketEndpoint (per node: shared links, per-group demux)
//
// Placement is round-robin with offset: replica i of group g lives on node
// (g + i) mod M, so consecutive groups lead on different nodes and every
// node carries a balanced share of leaders and followers.  M >= n keeps
// replicas of one group on pairwise-distinct nodes (the transport enforces
// it).
//
// Two drive modes hand their groups to the driver runner
// (net/driver_runner), as the in-process LiveRuntime does:
//   * run_sharded(): everything in one process — a SocketFabric of M
//     endpoints over real sockets, G x n driver threads, per-group
//     armed-stop shutdown, per-group merge + validation.  The bench and
//     fuzz entry point, and every run over real sockets: one group over
//     n nodes is the single-group socket run (identity placement).
//   * ShardedNode: one OS process per node for the multi-process demo —
//     hosts its share of replicas, runs them for an agreed fixed round
//     count (the one mode with a fixed round count: the armed stop cannot
//     span address spaces), and ships one ShippedLog per hosted group,
//     the first carrying its endpoint's counters; the launcher merges
//     with ship_and_merge_groups().

#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/options.hpp"
#include "net/socket_transport.hpp"
#include "net/trace_ship.hpp"
#include "sim/harness.hpp"

namespace indulgence {

/// Hash-partitioned key routing: which group owns `key`.  FNV-1a with a
/// 64-bit avalanche so consecutive keys spread across groups.
GroupId group_for_key(std::uint64_t key, int num_groups);

/// Replica i of group g lives on node (g + i) mod num_nodes.
int node_for(GroupId group, ProcessId pid, int num_nodes);

/// The full placement vector for one group: members[pid] = hosting node.
std::vector<int> group_placement(GroupId group, int n, int num_nodes);

struct ShardedOptions {
  int num_nodes = 3;          ///< M endpoints; must be >= config.n
  int num_groups = 8;         ///< G consensus groups
  SystemConfig config{3, 1};  ///< per-group (n, t)
  /// Per-driver pacing (gates, grace, seed), and the Byzantine plan every
  /// group runs, its liars stamped into every group's trace.
  LiveOptions live;
  SocketAddress::Kind kind = SocketAddress::Kind::Unix;
  SocketTransportOptions socket;
  DonePredicate done;         ///< per replica; null = "has decided"
  /// Per-round probe of every replica (group-local pid); may be null.
  RoundObserver observer;
  /// Called once with the run epoch after every endpoint is up and before
  /// the driver threads start — the sharded mirror of
  /// LiveRuntime::set_start_hook (client fleets launch here).
  std::function<void(std::chrono::steady_clock::time_point)> on_start;
};

/// What one group produced: the validated per-group RunResult, its replica
/// instances (RSM log inspection), and its wall-clock span (epoch to the
/// last of its drivers exiting) for per-group latency percentiles.
struct GroupOutcome {
  RunResult result;
  AlgorithmInstances algorithms;
  std::chrono::microseconds wall{0};
};

struct ShardedResult {
  std::map<GroupId, GroupOutcome> groups;
  SocketCounters counters;  ///< fabric-wide aggregate over all endpoints

  /// Every group's merged trace passed the unchanged per-group Validator
  /// and its run terminated.  (Single-shot consensus payloads should
  /// additionally assert result.ok() per group; an RSM never "decides" in
  /// the single-shot sense, so ok() is not the right group-level check.)
  bool all_valid() const;
};

/// Per-group algorithm factory (the RSM needs per-group command queues)
/// and proposals (one per group-local replica).
using GroupFactory = std::function<AlgorithmFactory(GroupId)>;
using GroupProposals = std::function<std::vector<Value>(GroupId)>;

/// Runs G groups x n replicas over M endpoints inside this process and
/// merges + validates each group's trace independently.  Throws on driver
/// failure or invalid options (config invalid, num_nodes < config.n, a
/// liar out of range, a Byzantine budget with 3b >= n).
ShardedResult run_sharded(const ShardedOptions& options,
                          const GroupFactory& factory_for,
                          const GroupProposals& proposals_for);

/// One node of a multi-process sharded fabric: binds its endpoint up
/// front (listen_address() is then final), hosts replicas via host(), and
/// run() drives them all for an agreed fixed round count, returning one
/// ShippedLog per hosted group for ship_and_merge_groups().  The endpoint
/// applies `live.byzantine` to the liars it hosts.
class ShardedNode {
 public:
  ShardedNode(int node, int num_nodes, SocketAddress listen,
              AddressResolver resolver, SocketTransportOptions socket,
              LiveOptions live);

  /// Registers group-local replica `self` of `group` on this node.
  /// `members[pid]` = hosting node (members[self] must be this node).
  /// The factory is per hosted replica because sharded services give each
  /// group its own payload (e.g. per-group RSM command streams).
  void host(GroupId group, SystemConfig config, ProcessId self,
            std::vector<int> members, AlgorithmFactory factory,
            Value proposal);

  const SocketAddress& listen_address() const {
    return endpoint_->listen_address();
  }

  /// Runs every hosted replica for exactly rounds 1..fixed_rounds, stops
  /// the endpoint, and returns one ShippedLog per hosted group (ascending
  /// GroupId).  The endpoint-wide supervisor counters ride on the first
  /// log only, so summing over shipped logs does not double-count.
  std::vector<ShippedLog> run(Round fixed_rounds,
                              DonePredicate done = nullptr);

  /// The hosted replicas' algorithm instances after run(), in host() call
  /// order (committed-log inspection for RSM payloads).
  const AlgorithmInstances& algorithms() const { return algorithms_; }
  GroupId hosted_group(std::size_t index) const {
    return hosted_[index].group;
  }

 private:
  struct Hosted {
    GroupId group = 0;
    SystemConfig config{};
    ProcessId self = -1;
    AlgorithmFactory factory;
    Value proposal = kBottom;
    std::unique_ptr<Mailbox> mailbox;
    std::unique_ptr<GroupPort> port;
  };

  LiveOptions live_;
  /// Declared before the endpoint, so the mailboxes outlive its readers.
  std::vector<Hosted> hosted_;
  std::unique_ptr<SocketEndpoint> endpoint_;
  AlgorithmInstances algorithms_;
};

}  // namespace indulgence
