#include "net/sharded_runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/driver_runner.hpp"
#include "net/live_trace.hpp"

namespace indulgence {

GroupId group_for_key(std::uint64_t key, int num_groups) {
  if (num_groups <= 0) {
    throw std::invalid_argument("sharded: need a positive group count");
  }
  // FNV-1a over the key's bytes, then a 64-bit avalanche (splitmix64
  // finalizer) so consecutive keys land on unrelated groups.
  std::uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (key >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<GroupId>(h % static_cast<std::uint64_t>(num_groups));
}

int node_for(GroupId group, ProcessId pid, int num_nodes) {
  return static_cast<int>((static_cast<long>(group) + pid) %
                          static_cast<long>(num_nodes));
}

std::vector<int> group_placement(GroupId group, int n, int num_nodes) {
  std::vector<int> members(static_cast<std::size_t>(n));
  for (ProcessId pid = 0; pid < n; ++pid) {
    members[static_cast<std::size_t>(pid)] = node_for(group, pid, num_nodes);
  }
  return members;
}

bool ShardedResult::all_valid() const {
  return !groups.empty() &&
         std::all_of(groups.begin(), groups.end(), [](const auto& entry) {
           return entry.second.result.validation.ok() &&
                  entry.second.result.trace.terminated();
         });
}

ShardedResult run_sharded(const ShardedOptions& options,
                          const GroupFactory& factory_for,
                          const GroupProposals& proposals_for) {
  const SystemConfig config = options.config;
  config.validate();
  const int nodes = options.num_nodes;
  const int groups = options.num_groups;
  if (nodes < config.n) {
    throw std::invalid_argument(
        "sharded: need at least n nodes for distinct placement");
  }
  if (groups < 1) {
    throw std::invalid_argument("sharded: need at least one group");
  }
  // Every group runs the same plan, so every group's merged trace gets the
  // same liar stamp.
  const LiveMergeInput declared = declared_merge_input(config, options.live);

  // The mailboxes outlive the fabric, whose readers push into them until
  // it stops.  The drivers outlive it too: freeing the endpoints' frame
  // buffers before the drivers' state keeps the heap's peak lower across
  // runs (by about 5 MiB on perfbench's uds-sharded-open).
  std::vector<std::vector<std::unique_ptr<Mailbox>>> mailboxes(
      static_cast<std::size_t>(groups));
  DriverRunner runner;
  SocketFabric fabric(nodes, options.kind, options.socket,
                      options.live.byzantine);

  // Register every group's replicas with their hosting endpoints; each gets
  // the GroupPort view its (unchanged) driver will use.
  std::vector<std::vector<HostedReplica>> replicas(
      static_cast<std::size_t>(groups));
  for (GroupId g = 0; g < groups; ++g) {
    const std::vector<int> members = group_placement(g, config.n, nodes);
    auto& boxes = mailboxes[static_cast<std::size_t>(g)];
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      boxes.push_back(make_mailbox(config, options.live));
      replicas[static_cast<std::size_t>(g)].push_back(HostedReplica{
          pid, boxes.back().get(),
          &fabric.host(g, config, pid, members, boxes.back().get())});
    }
  }

  const auto epoch = std::chrono::steady_clock::now();
  fabric.start(epoch);
  if (options.on_start) options.on_start(epoch);

  for (GroupId g = 0; g < groups; ++g) {
    const std::vector<Value> proposals = proposals_for(g);
    if (static_cast<int>(proposals.size()) != config.n) {
      throw std::invalid_argument("sharded: need one proposal per replica");
    }
    auto& hosted = replicas[static_cast<std::size_t>(g)];
    for (HostedReplica& replica : hosted) {
      replica.proposal = proposals[static_cast<std::size_t>(replica.self)];
    }
    runner.add_group(g,
                     DriverContext{.config = config,
                                   .options = &options.live,
                                   .factory = factory_for(g),
                                   .done = options.done,
                                   .observer = options.observer,
                                   .epoch = epoch},
                     hosted);
  }
  std::map<GroupId, GroupLogs> logs =
      runner.run([&fabric] { return fabric.stop(); });

  ShardedResult result;
  while (!logs.empty()) {
    // Extracted, so each group's process logs go once it is merged.
    auto entry = logs.extract(logs.begin());
    const GroupId g = entry.key();
    GroupLogs& group = entry.mapped();
    LiveMergeInput merge = declared;
    merge.model = Model::ES;
    merge.gst_hint = 0;  // derive the minimal conforming GST per group
    merge.terminated = group.terminated;
    merge.logs = &group.logs;
    merge.undelivered = std::move(group.undelivered);

    GroupOutcome outcome;
    outcome.result = merge_and_judge(merge);
    outcome.algorithms = std::move(group.algorithms);
    outcome.wall = std::chrono::duration_cast<std::chrono::microseconds>(
        std::max(epoch, group.last_exit) - epoch);
    result.groups.emplace(g, std::move(outcome));
  }
  result.counters = fabric.counters();
  return result;
}

// ---------------------------------------------------------------------------
// ShardedNode

ShardedNode::ShardedNode(int node, int num_nodes, SocketAddress listen,
                         AddressResolver resolver,
                         SocketTransportOptions socket, LiveOptions live)
    : live_(std::move(live)),
      endpoint_(std::make_unique<SocketEndpoint>(
          node, num_nodes, std::move(listen), std::move(resolver),
          std::move(socket), live_.byzantine)) {}

void ShardedNode::host(GroupId group, SystemConfig config, ProcessId self,
                       std::vector<int> members, AlgorithmFactory factory,
                       Value proposal) {
  Hosted hosted;
  hosted.group = group;
  hosted.config = config;
  hosted.self = self;
  hosted.factory = std::move(factory);
  hosted.proposal = proposal;
  hosted.mailbox = make_mailbox(config, live_);
  endpoint_->add_group(
      GroupSpec{group, config, self, std::move(members), hosted.mailbox.get()});
  hosted.port = std::make_unique<GroupPort>(endpoint_.get(), group);
  hosted_.push_back(std::move(hosted));
}

std::vector<ShippedLog> ShardedNode::run(Round fixed_rounds,
                                         DonePredicate done) {
  if (fixed_rounds <= 0) {
    throw std::invalid_argument(
        "sharded node: multi-process runs need an agreed fixed round count");
  }
  const auto epoch = std::chrono::steady_clock::now();
  endpoint_->start(epoch);

  // The armed-stop protocol cannot span address spaces, and fixed_rounds
  // makes it vestigial: each hosted replica's group control only carries
  // the crash/done accounting of a 1-driver run, and expedites the port on
  // an abort.  Pulse boards cannot span address spaces either, so a remote
  // pacemaker follower runs its grace-timeout fallback, which is exactly
  // the policy's pulse-loss story.
  DriverRunner runner;
  for (const Hosted& hosted : hosted_) {
    runner.add_group(hosted.group,
                     DriverContext{.config = hosted.config,
                                   .options = &live_,
                                   .fixed_rounds = fixed_rounds,
                                   .factory = hosted.factory,
                                   .done = done,
                                   .epoch = epoch},
                     {HostedReplica{hosted.self, hosted.mailbox.get(),
                                    hosted.port.get(), hosted.proposal}});
  }
  // A node hosts at most one replica per group, so each hosted replica is
  // its own group in the runner's result.
  std::map<GroupId, GroupLogs> logs =
      runner.run([this] { return endpoint_->stop_and_flush(); });

  std::vector<ShippedLog> shipped;
  shipped.reserve(hosted_.size());
  algorithms_.clear();
  for (const Hosted& hosted : hosted_) {
    GroupLogs& group = logs.at(hosted.group);
    algorithms_.push_back(std::move(group.algorithms.front()));
    ShippedLog log;
    log.group = hosted.group;
    log.self = hosted.self;
    log.config = hosted.config;
    log.log = std::move(group.logs.front());
    log.undelivered = std::move(group.undelivered);
    shipped.push_back(std::move(log));
  }
  std::sort(shipped.begin(), shipped.end(),
            [](const ShippedLog& a, const ShippedLog& b) {
              return a.group < b.group;
            });
  // Endpoint-wide counters ride on the first log only, so aggregating over
  // shipped logs does not count this node G times.
  if (!shipped.empty()) shipped.front().counters = endpoint_->counters();
  return shipped;
}

}  // namespace indulgence
