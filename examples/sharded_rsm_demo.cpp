// The sharded RSM as a real multi-node service: M OS processes (one per
// node, spawned by this same binary acting as the launcher), each hosting
// its share of G independent consensus groups over ONE group-multiplexed
// socket endpoint per node.
//
//   $ ./sharded_rsm_demo [--nodes M] [--groups G] [--n N] [--tcp] [--chaos]
//
// The client key space is hash-partitioned across the groups with
// group_for_key(); each group is an N-replica indulgent RSM (N = 3 unless
// --n says otherwise, t = (N - 1) / 2) whose replicas live on pairwise-
// distinct nodes chosen by group_placement().  `--groups 1 --nodes N` is
// the plain replicated log with one OS process per replica.  All groups
// share the node-to-node links (one supervisor, one heartbeat, one
// seq/ack stream per peer); the per-group demux layer fans decoded
// envelopes out to the owning replicas.  Every node process runs all of
// its hosted replicas for an agreed fixed round count and ships one
// binary trace log per hosted group; the launcher merges each group's
// N logs with ship_and_merge_groups() and re-checks every merged
// trace with the UNCHANGED per-group model validator, then compares each
// group's committed logs — identical at every replica, by agreement —
// and checks that every committed client key really belongs to the
// group that committed it (no cross-group leakage through the demux).
//
// --chaos turns on the seeded wire-chaos layer for the first 150 ms on
// every link.  The link supervisors absorb it (reconnect with backoff,
// resend from the hold queues), so the verdict must not change.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "net/sharded_runtime.hpp"
#include "rsm/rsm.hpp"

namespace {

using namespace indulgence;

constexpr int kSlotsPerGroup = 4;
constexpr Round kWindow = 2;
// Slot s opens at round s * kWindow + 1; the last slot opens at round 7
// and A_{t+2}+ff closes it in a few synchronous rounds.  The budget is
// generous (32 rounds) because a 64-group demo runs ~50 driver threads
// per node process and the chaos window can eat the early rounds:
// scheduler lateness or a reconnect occasionally costs a slot a failure
// suspicion and the slow path — exactly the indulgence the algorithm
// tolerates, paid for in rounds.  Extra rounds after the last commit are
// near-free (dummy sends).
constexpr Round kRounds = 32;

struct DemoArgs {
  int nodes = 4;
  int groups = 64;
  int n = 3;  ///< replicas per group
  bool tcp = false;
  bool chaos = false;
  int node = -1;  ///< >= 0: run as node `node` (internal re-entry)
  std::string dir;
  std::uint16_t base_port = 0;
};

SystemConfig group_config(const DemoArgs& args) {
  return SystemConfig{.n = args.n, .t = (args.n - 1) / 2};
}

std::vector<SocketAddress> addresses_of(const DemoArgs& args) {
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < args.nodes; ++i) {
    if (args.tcp) {
      addrs.push_back(SocketAddress::tcp_loopback(
          static_cast<std::uint16_t>(args.base_port + i)));
    } else {
      addrs.push_back(SocketAddress::unix_path(
          args.dir + "/node" + std::to_string(i) + ".sock"));
    }
  }
  return addrs;
}

/// Hash-partitioned command streams: scan client keys 1, 2, ... and give
/// each group the first kSlotsPerGroup keys that route to it.  Every
/// process computes the same assignment, so the replicas of one group
/// agree on their slot count and command queues without coordination.
std::vector<std::vector<Value>> partition_keys(int groups) {
  std::vector<std::vector<Value>> streams(
      static_cast<std::size_t>(groups));
  int full = 0;
  const std::uint64_t scan_limit =
      64 * static_cast<std::uint64_t>(groups) + 1024;
  for (std::uint64_t key = 1; full < groups && key <= scan_limit; ++key) {
    auto& stream =
        streams[static_cast<std::size_t>(group_for_key(key, groups))];
    if (static_cast<int>(stream.size()) >= kSlotsPerGroup) continue;
    stream.push_back(static_cast<Value>(key));
    if (static_cast<int>(stream.size()) == kSlotsPerGroup) ++full;
  }
  return streams;
}

/// One group's RSM factory: slots for its keys, key i queued at replica
/// i mod n (each client key has one home replica — two replicas queueing
/// the same command would legitimately commit it twice).
AlgorithmFactory group_rsm_factory(std::vector<Value> keys, int n) {
  RsmOptions rsm;
  rsm.num_slots = std::max<int>(1, static_cast<int>(keys.size()));
  rsm.slot_window = kWindow;
  At2Options ff;
  ff.failure_free_opt = true;
  return rsm_factory(
      at2_factory(hurfin_raynal_factory(), ff),
      [keys = std::move(keys), n](ProcessId pid) {
        std::vector<Value> mine;
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (static_cast<ProcessId>(i % static_cast<std::size_t>(n)) == pid) {
            mine.push_back(keys[i]);
          }
        }
        return mine;
      },
      rsm);
}

std::string shipped_path(const DemoArgs& args, int node, GroupId g) {
  return args.dir + "/n" + std::to_string(node) + "-g" + std::to_string(g) +
         ".shipped";
}
std::string committed_path(const DemoArgs& args, int node, GroupId g) {
  return args.dir + "/n" + std::to_string(node) + "-g" + std::to_string(g) +
         ".committed";
}

// ---------------------------------------------------------------------------
// Node process: one endpoint, many hosted group replicas
// ---------------------------------------------------------------------------

int run_node(const DemoArgs& args) {
  const int self = args.node;
  const SystemConfig config = group_config(args);
  LiveOptions live;
  live.max_rounds = kRounds;
  // Dozens of driver threads share each node's cores; a tighter grace
  // reads scheduling jitter as failures and burns rounds on suspicions.
  live.quorum_grace = std::chrono::microseconds{2'000};

  SocketTransportOptions socket_options;
  socket_options.seed = 4242 + static_cast<std::uint64_t>(self) * 1337;
  if (args.chaos) {
    WireChaosOptions chaos;
    chaos.seed = 99;  // per-link streams still differ (keyed by node, peer)
    chaos.until = std::chrono::milliseconds{150};
    chaos.connect_fail_prob = 0.25;
    chaos.accept_close_prob = 0.15;
    chaos.reset_prob = 0.1;
    chaos.stall_prob = 0.15;
    chaos.stall = std::chrono::microseconds{1'000};
    chaos.short_write_prob = 0.25;
    socket_options.chaos = chaos;
  }

  const std::vector<SocketAddress> addresses = addresses_of(args);
  AddressResolver resolve = [addresses](ProcessId node)
      -> std::optional<SocketAddress> {
    if (node < 0 || node >= static_cast<ProcessId>(addresses.size())) {
      return std::nullopt;
    }
    return addresses[static_cast<std::size_t>(node)];
  };
  ShardedNode node(self, args.nodes,
                   addresses[static_cast<std::size_t>(self)], resolve,
                   socket_options, live);

  const std::vector<std::vector<Value>> streams =
      partition_keys(args.groups);
  for (GroupId g = 0; g < args.groups; ++g) {
    const std::vector<int> members =
        group_placement(g, config.n, args.nodes);
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      if (members[static_cast<std::size_t>(pid)] != self) continue;
      node.host(g, config, pid, members,
                group_rsm_factory(streams[static_cast<std::size_t>(g)],
                                  config.n),
                kNoOpCommand);
    }
  }

  const std::vector<ShippedLog> shipped = node.run(kRounds);
  for (const ShippedLog& log : shipped) {
    write_shipped_log(shipped_path(args, self, log.group), log);
  }

  // Ship each hosted replica's committed log alongside its trace log.
  int failures = 0;
  for (std::size_t i = 0; i < node.algorithms().size(); ++i) {
    const GroupId g = node.hosted_group(i);
    const auto* rep =
        dynamic_cast<const RsmReplica*>(node.algorithms()[i].get());
    std::ofstream committed(committed_path(args, self, g), std::ios::trunc);
    if (rep) {
      for (const std::optional<Value>& v : rep->log()) {
        committed << v.value_or(kNoOpCommand) << "\n";
      }
    }
    if (!rep || !rep->all_slots_committed() || !committed) {
      std::cerr << "node " << self << " group " << g << ": only "
                << (rep ? rep->committed_prefix() : 0)
                << " slots committed after " << kRounds << " rounds\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

int launch(DemoArgs args) {
  const SystemConfig config = group_config(args);
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "indulgence-sharded-rsm-XXXXXX")
                         .string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::cerr << "sharded_rsm_demo: mkdtemp failed\n";
    return 1;
  }
  args.dir = tmpl;
  if (args.tcp) {
    // A pid-derived loopback port block; node i binds base_port + i.
    args.base_port =
        static_cast<std::uint16_t>(20'000 + (::getpid() % 20'000));
  }

  std::cout << "Sharded indulgent RSM: " << args.groups << " groups x "
            << config.n << " replicas over " << args.nodes
            << " node processes, "
            << (args.tcp ? "TCP loopback" : "Unix-domain sockets")
            << (args.chaos ? ", wire chaos for the first 150 ms" : "")
            << "\n";
  const std::vector<std::vector<Value>> streams =
      partition_keys(args.groups);
  std::cout << "hash-partitioned keys, e.g. group 0 owns {";
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    std::cout << (i ? " " : "") << streams[0][i];
  }
  std::cout << "}\n\n";

  std::vector<pid_t> children;
  for (int i = 0; i < args.nodes; ++i) {
    const pid_t child = ::fork();
    if (child < 0) {
      std::cerr << "sharded_rsm_demo: fork failed\n";
      return 1;
    }
    if (child == 0) {
      const std::string node = std::to_string(i);
      const std::string nodes = std::to_string(args.nodes);
      const std::string groups = std::to_string(args.groups);
      const std::string n = std::to_string(args.n);
      const std::string port = std::to_string(args.base_port);
      std::vector<const char*> argv = {
          "/proc/self/exe", "--node",   node.c_str(),   "--dir",
          args.dir.c_str(), "--nodes",  nodes.c_str(),  "--groups",
          groups.c_str(),   "--n",      n.c_str(),      "--port",
          port.c_str()};
      if (args.tcp) argv.push_back("--tcp");
      if (args.chaos) argv.push_back("--chaos");
      argv.push_back(nullptr);
      ::execv("/proc/self/exe", const_cast<char* const*>(argv.data()));
      std::perror("sharded_rsm_demo: execv");
      std::_Exit(127);
    }
    children.push_back(child);
  }

  bool children_ok = true;
  for (pid_t child : children) {
    int status = 0;
    if (::waitpid(child, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      children_ok = false;
    }
  }

  // Ship: every (node, group) trace log, merged and validated per group.
  std::vector<ShippedLog> logs;
  std::map<int, SocketCounters> node_counters;
  std::map<int, int> node_groups;
  bool shipped_ok = true;
  for (GroupId g = 0; g < args.groups; ++g) {
    const std::vector<int> members =
        group_placement(g, config.n, args.nodes);
    for (int node : members) {
      auto shipped = read_shipped_log(shipped_path(args, node, g));
      if (!shipped) {
        std::cerr << "sharded_rsm_demo: node " << node << " group " << g
                  << " shipped no readable log\n";
        shipped_ok = false;
        continue;
      }
      node_counters[node] += shipped->counters;
      ++node_groups[node];
      logs.push_back(std::move(*shipped));
    }
  }

  int valid_groups = 0;
  if (shipped_ok &&
      static_cast<int>(logs.size()) == args.groups * config.n) {
    const std::map<GroupId, RunResult> merged =
        ship_and_merge_groups(std::move(logs), /*terminated=*/true);
    for (const auto& [g, result] : merged) {
      // An RSM never "decides" in the single-shot sense, so the per-group
      // verdict is the validator plus termination, not result.ok().
      if (result.validation.ok() && result.trace.terminated()) {
        ++valid_groups;
      } else {
        std::cerr << "group " << g << ": "
                  << result.validation.to_string() << "\n";
      }
    }
  }

  // Each group's committed logs must be identical at its n replicas,
  // and every committed client key must belong to that group's partition.
  int agreeing_groups = 0;
  bool routing_ok = true;
  const Value max_key =
      static_cast<Value>(64 * static_cast<std::uint64_t>(args.groups) + 1024);
  std::set<Value> committed_anywhere;
  for (GroupId g = 0; g < args.groups; ++g) {
    const std::vector<int> members =
        group_placement(g, config.n, args.nodes);
    bool agree = true;
    std::vector<std::string> reference;
    for (std::size_t i = 0; i < members.size(); ++i) {
      std::ifstream in(committed_path(
          args, members[i], g));
      std::vector<std::string> mine;
      for (std::string line; std::getline(in, line);) mine.push_back(line);
      if (mine.empty()) agree = false;
      if (i == 0) {
        reference = mine;
      } else if (mine != reference) {
        agree = false;
      }
    }
    if (agree) ++agreeing_groups;
    const auto& keys = streams[static_cast<std::size_t>(g)];
    for (const std::string& line : reference) {
      const Value v = static_cast<Value>(std::atoll(line.c_str()));
      // No-op commits log a large per-proposer sentinel; skip those.
      if (v == kNoOpCommand || v > max_key) continue;
      if (std::find(keys.begin(), keys.end(), v) == keys.end() ||
          !committed_anywhere.insert(v).second) {
        std::cerr << "group " << g << " committed foreign/duplicate key "
                  << v << "\n";
        routing_ok = false;
      }
    }
  }

  Table table({"node", "groups", "reconnects", "resends", "peer timeouts",
               "demux drops", "injected faults"});
  for (const auto& [node, c] : node_counters) {
    table.add("n" + std::to_string(node), node_groups[node], c.reconnects,
              c.envelopes_resent, c.peer_timeouts, c.demux_drops,
              c.injected_resets + c.injected_stalls +
                  c.injected_short_writes + c.injected_connect_failures +
                  c.injected_accept_closes);
  }
  table.print(std::cout, "per node process (links shared by all groups)");

  std::cout << "\nmerged traces: " << valid_groups << "/" << args.groups
            << " groups validator-clean; committed logs: "
            << agreeing_groups << "/" << args.groups
            << " groups agree; key routing "
            << (routing_ok ? "disjoint" : "VIOLATED") << "\n";

  std::filesystem::remove_all(args.dir);
  const bool ok = children_ok && shipped_ok &&
                  valid_groups == args.groups &&
                  agreeing_groups == args.groups && routing_ok;
  std::cout << (ok ? "\nOK: one fabric, many groups, every trace valid, "
                     "every log agreed.\n"
                   : "\nFAILED — see above.\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  DemoArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tcp") {
      args.tcp = true;
    } else if (arg == "--chaos") {
      args.chaos = true;
    } else if (arg == "--nodes" && (v = value())) {
      args.nodes = std::atoi(v);
    } else if (arg == "--groups" && (v = value())) {
      args.groups = std::atoi(v);
    } else if (arg == "--n" && (v = value())) {
      args.n = std::atoi(v);
    } else if (arg == "--node" && (v = value())) {
      args.node = std::atoi(v);
    } else if (arg == "--dir" && (v = value())) {
      args.dir = v;
    } else if (arg == "--port" && (v = value())) {
      args.base_port = static_cast<std::uint16_t>(std::atoi(v));
    } else {
      std::cerr
          << "usage: sharded_rsm_demo [--nodes M] [--groups G] [--n N] "
             "[--tcp] [--chaos]\n";
      return 2;
    }
  }
  if (args.n < 3 || args.n > 13 || args.n % 2 == 0) {
    std::cerr << "sharded_rsm_demo: need odd n in 3..13\n";
    return 2;
  }
  if (args.nodes < args.n || args.nodes > 16) {
    std::cerr << "sharded_rsm_demo: need nodes in " << args.n << "..16\n";
    return 2;
  }
  if (args.groups < 1 || args.groups > 512) {
    std::cerr << "sharded_rsm_demo: need groups in 1..512\n";
    return 2;
  }
  try {
    return args.node >= 0 ? run_node(args) : launch(std::move(args));
  } catch (const std::exception& e) {
    std::cerr << "sharded_rsm_demo: " << e.what() << "\n";
    return 1;
  }
}
