// Multi-process trace shipping: when each replica is its own OS process,
// no shared memory can carry the ProcessLogs to a single merge point, so
// every process serializes what it observed — its ProcessLog, the copies
// its socket endpoint still held at teardown, and the endpoint's
// supervisor counters — to one binary file, and the launcher ships the
// files back together into the very same merge_process_logs +
// minimal-conforming-GST + Validator pipeline the in-process runtime uses.
// The oracle does not change because the address spaces did.
//
// The file format reuses the wire codec (little-endian primitives, the
// message registry for delivery payloads), framed by a magic and a
// version, so a partial write or foreign file reads as nullopt, never UB.
// There is one version (3): a file of any other version, the older 1 and
// 2 included, reads as foreign.

#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/round_driver.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "sim/harness.hpp"

namespace indulgence {

/// Everything one OS process contributes to ONE group's merged trace.  A
/// sharded node hosting G groups ships G of these, one file each.
struct ShippedLog {
  GroupId group = 0;
  ProcessId self = -1;  ///< group-local pid
  SystemConfig config{};
  ProcessLog log;
  /// Sender-side copies still unacknowledged when the endpoint stopped,
  /// already partitioned to this group.
  std::vector<UndeliveredCopy> undelivered;
  SocketCounters counters;
};

/// Serializes `shipped` to `path` (overwrite).  Throws std::runtime_error
/// when the file cannot be written.
void write_shipped_log(const std::string& path, const ShippedLog& shipped);

/// Reads a file written by write_shipped_log; nullopt on a missing,
/// truncated, or foreign file.
std::optional<ShippedLog> read_shipped_log(const std::string& path);

/// Merges per-process shipped logs (one per pid, any order) into a checked
/// RunResult: merged trace, minimal conforming GST, full validator report,
/// consensus properties.  `terminated` asserts that every process finished
/// its agreed fixed round count.  Throws std::invalid_argument when logs
/// are missing, duplicated, belong to different groups, or disagree on the
/// system config.
RunResult ship_and_merge(std::vector<ShippedLog> logs, bool terminated);

/// The sharded flavour: partitions logs by group and runs the unchanged
/// per-group merge + validate pipeline on each partition (each group must
/// contribute exactly its n logs).  Returns one RunResult per group.
std::map<GroupId, RunResult> ship_and_merge_groups(
    std::vector<ShippedLog> logs, bool terminated);

/// Aggregate supervisor counters across shipped logs.
SocketCounters total_counters(const std::vector<ShippedLog>& logs);

}  // namespace indulgence
