// The one place live replicas run.  Whatever carries their envelopes — the
// fault-injecting router, a scripted replay, or the socket fabric — a live
// run is G groups of n RoundDrivers, one thread each.  LiveRuntime (G = 1),
// run_sharded (G groups over M in-process nodes) and ShardedNode (the
// replicas one OS process hosts) all hand their drivers to a DriverRunner:
// it spawns and joins the threads, stops the transport, turns what is left
// in the mailboxes into undelivered copies, and rethrows the root-cause
// error.  merge_and_judge (net/live_trace) then turns each group's logs
// into a checked RunResult; ShardedNode ships them instead.

#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/options.hpp"
#include "net/round_driver.hpp"
#include "sim/harness.hpp"

namespace indulgence {

/// A mailbox that holds a whole run: a replica can be sent at most n - 1
/// copies per round, so producers never block on a consumer that already
/// exited.
std::unique_ptr<Mailbox> make_mailbox(const SystemConfig& config,
                                      const LiveOptions& options);

/// What one group's drivers left behind, in the order they were added.
struct GroupLogs {
  std::vector<ProcessLog> logs;
  AlgorithmInstances algorithms;
  /// The copies the transport still held at stop, then the mailboxes'.
  std::vector<UndeliveredCopy> undelivered;
  /// When the group's last driver exited.
  std::chrono::steady_clock::time_point last_exit{};
};

class DriverRunner {
 public:
  /// Builds the driver of one replica of `group`; its algorithm factory
  /// runs here, so callers add drivers after the run's start hook.
  void add(GroupId group, DriverContext ctx);

  /// Runs every added driver on its own thread and joins them all.  Then
  /// `stop` tears the transport down and returns the copies it still held,
  /// each tagged with its group, and every mailbox is drained.  Rethrows
  /// the root-cause driver error, if any; otherwise returns the logs of
  /// each group.
  std::map<GroupId, GroupLogs> run(
      const std::function<std::vector<UndeliveredCopy>()>& stop);

 private:
  struct Entry {
    GroupId group = 0;
    ProcessId self = -1;
    Mailbox* mailbox = nullptr;
    std::unique_ptr<RoundDriver> driver;
    std::chrono::steady_clock::time_point exited{};
  };
  std::vector<Entry> entries_;
};

}  // namespace indulgence
