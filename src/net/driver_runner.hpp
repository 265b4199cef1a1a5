// The one place live replicas run.  Whatever carries their envelopes — the
// fault-injecting router, a scripted replay, or the socket fabric — a live
// run is G groups of n RoundDrivers, one thread each.  LiveRuntime (G = 1),
// run_sharded (G groups over M in-process nodes) and ShardedNode (the
// replicas one OS process hosts) hand each group to a DriverRunner as one
// shared DriverContext plus the replicas hosted here.  The runner wires the
// group — its RunControl, whose stop expedites the replicas' transports,
// and its pacemaker PulseBoard when every replica runs in this process —
// then spawns and joins the threads, stops the transport, turns what is
// left in the mailboxes into undelivered copies, and rethrows the
// root-cause error.  merge_and_judge (net/live_trace) then turns each
// group's logs into a checked RunResult; ShardedNode ships them instead.

#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/options.hpp"
#include "net/round_driver.hpp"
#include "net/synchronizer.hpp"
#include "sim/harness.hpp"

namespace indulgence {

/// A mailbox that holds a whole run: a replica can be sent at most n - 1
/// copies per round, so producers never block on a consumer that already
/// exited.
std::unique_ptr<Mailbox> make_mailbox(const SystemConfig& config,
                                      const LiveOptions& options);

/// One replica of a group hosted in this process: what its driver does not
/// share with the group's other replicas.
struct HostedReplica {
  ProcessId self = -1;
  Mailbox* mailbox = nullptr;
  Transport* transport = nullptr;
  Value proposal = kBottom;
};

/// What one group's drivers left behind, in the order they were added.
struct GroupLogs {
  std::vector<ProcessLog> logs;
  AlgorithmInstances algorithms;
  /// The copies the transport still held at stop, then the mailboxes'.
  std::vector<UndeliveredCopy> undelivered;
  /// When the group's last driver exited.
  std::chrono::steady_clock::time_point last_exit{};
  /// The group ran its fixed round count, or stopped because every live
  /// replica was done (not on a round cap or an abort).
  bool terminated = false;
};

class DriverRunner {
 public:
  /// Builds the drivers of `replicas`, the replicas of `group` hosted in
  /// this process, each from `shared` plus its own fields; add each group
  /// once.  The group gets one RunControl, whose stop expedites every
  /// hosted replica's transport, and, exactly when all config.n replicas
  /// are hosted here, one pulse board.  `shared` carries the run's epoch,
  /// so callers add groups once the transport started and the start hook
  /// ran.
  void add_group(GroupId group, const DriverContext& shared,
                 const std::vector<HostedReplica>& replicas);

  /// Runs every added driver on its own thread and joins them all.  Then
  /// `stop`, if set, tears the transport down and returns the copies it
  /// still held, each tagged with its group, and every mailbox is drained.
  /// Rethrows the root-cause driver error, if any; otherwise returns the
  /// logs of each group.
  std::map<GroupId, GroupLogs> run(
      const std::function<std::vector<UndeliveredCopy>()>& stop = {});

 private:
  struct Group {
    explicit Group(SystemConfig config) : control(config) {}
    RunControl control;
    std::unique_ptr<PulseBoard> pulses;
    Round fixed_rounds = 0;
  };
  struct Entry {
    GroupId group = 0;
    ProcessId self = -1;
    Mailbox* mailbox = nullptr;
    std::unique_ptr<RoundDriver> driver;
    std::chrono::steady_clock::time_point exited{};
  };
  /// Node-based, so each driver's pointers into its group stay valid.
  std::map<GroupId, Group> groups_;
  std::vector<Entry> entries_;
};

}  // namespace indulgence
