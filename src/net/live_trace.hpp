// Deterministic reconstruction of a RunTrace from per-thread process logs.
//
// Every driver thread records its own history lock-free; after all threads
// join, the merge lays the events out in the same order the lockstep
// kernel would have produced them (round by round: crashes, sends,
// deliveries per receiver, decisions, halts), so downstream consumers —
// the validator, the trace printer, the .sched exporter — see live and
// simulated runs through one format.
//
// Live runs also need a GST *round*: the network's GST is a wall-clock
// offset, and which round it lands in depends on scheduling.  The merge
// derives the minimal conforming GST post hoc — the smallest round from
// which every non-crash-round send was received in-round by every process
// completing that round, i.e. the smallest K the validator's synchrony
// check accepts.  An ES network that really did stabilize yields a small
// K; loss or partition tails push K past the affected rounds, and any
// violation of the *unconditional* ES checks (t-resilience, reliable
// channels) is GST-independent and still flagged.

#pragma once

#include <vector>

#include "common/types.hpp"
#include "net/round_driver.hpp"
#include "net/transport.hpp"
#include "sim/harness.hpp"
#include "sim/trace.hpp"

namespace indulgence {

struct LiveMergeInput {
  SystemConfig config;
  Model model = Model::ES;
  /// > 0: trust this GST round (scripted replay: the schedule's own claim).
  /// 0: derive the minimal conforming GST from the merged events.
  Round gst_hint = 0;
  bool terminated = false;
  const std::vector<ProcessLog>* logs = nullptr;
  /// Copies still in flight at teardown (router queues + mailbox drains);
  /// driver reorder-buffer leftovers are taken from the logs directly.
  std::vector<UndeliveredCopy> undelivered;
  /// Declared budgeted liars and their budget (sim/byzantine.hpp), stamped
  /// into the merged trace so the validator excuses exactly them.
  ProcessSet byzantine;
  int byzantine_budget = 0;
};

RunTrace merge_process_logs(const LiveMergeInput& input);

/// Merges the logs and judges the merged trace: how every live run — in
/// process, over sockets, sharded, or shipped back from other processes —
/// becomes a checked RunResult.
RunResult merge_and_judge(const LiveMergeInput& input);

/// The smallest round K such that check_synchronous_delivery(K) passes:
/// from K on, every message of a sender that does not crash in its send
/// round reaches every process completing that round, in-round.
Round minimal_conforming_gst(const RunTrace& trace);

}  // namespace indulgence
