// Configuration of the live asynchronous runtime: link behaviour, fault
// injection, the wall-clock GST, and the round-synchronizer's pacing.
//
// The live runtime realizes the paper's eventual-synchrony model over real
// time: for a finite prefix (before `gst`, an offset from run start) the
// network may be slow, partitioned, and — if explicitly enabled — lossy;
// from `gst` on, latency is bounded by `post_gst` and nothing is lost, so
// the round synchronizer eventually runs every round "synchronously" and
// the recorded trace satisfies the ES constraints from some round K on.
//
// Loss and the below-quorum `round_cap` valve deliberately step OUTSIDE the
// ES model (reliable channels / t-resilience); they exist so tests can
// demonstrate that the independent Validator flags real network faults in
// live traces, exactly as it does for adversarial lockstep schedules.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "sim/byzantine.hpp"
#include "sim/process.hpp"

namespace indulgence {

/// Per-copy one-way latency, uniform in [floor, floor + jitter].
struct LatencyModel {
  std::chrono::microseconds floor{50};
  std::chrono::microseconds jitter{0};
};

/// While active, messages between `group` and its complement are held (not
/// lost: ES channels are reliable) and released when the partition heals —
/// at `until`, or at the wall-clock GST, whichever comes first.
struct PartitionSpec {
  std::chrono::microseconds from{0};
  std::chrono::microseconds until{0};
  ProcessSet group;
};

/// Crash process `pid` in round `round` of its own execution; with
/// `before_send`, before it broadcasts that round's message.  Round-indexed
/// (not wall-clock) so a crash scenario is reproducible across machines.
struct CrashInjection {
  ProcessId pid = -1;
  Round round = 0;
  bool before_send = false;
};

/// Which round-closing policy the drivers run (net/synchronizer.hpp):
/// the historical lockstep quorum gate, the leader-based pacemaker, or
/// the two-step fast path.  All three sit above the same quorum floor the
/// validator demands, so every choice yields validator-clean traces.
enum class SyncKind { Lockstep, Pacemaker, FastStep };

/// Transient-fault injection into synchronizer soft state: when process
/// `pid` opens round `round`, flip the state bits named by `bits` (the
/// meaning is per-synchronizer; see RoundSynchronizer::corrupt).  Models
/// the self-stabilization literature's transient corruption — the run
/// must still terminate with a validator-clean trace.
struct SyncCorruption {
  ProcessId pid = -1;
  Round round = 0;
  std::uint64_t bits = 0;
};

struct LiveOptions {
  /// Wall-clock GST as an offset from run start; 0 means the network obeys
  /// the synchronous bounds from the first instant.
  std::chrono::microseconds gst{0};

  LatencyModel pre_gst{std::chrono::microseconds{200},
                       std::chrono::microseconds{1500}};
  LatencyModel post_gst{std::chrono::microseconds{20},
                        std::chrono::microseconds{80}};

  /// Pre-GST probability that a message copy is dropped.  Any value > 0
  /// violates the ES reliable-channel assumption: the resulting trace MUST
  /// fail validation — that is the point of the knob.
  double loss_prob = 0.0;

  std::vector<PartitionSpec> partitions;
  std::vector<CrashInjection> crashes;

  /// Round-indexed Byzantine actions (sim/byzantine.hpp) the transport
  /// applies to the liars' outgoing copies — same output-mutation model as
  /// the lockstep kernel: the liar runs the honest algorithm, the fan-out
  /// rewrites what leaves it, and self-delivery is never affected.  Works
  /// under both the in-process router and the socket fabric.
  std::vector<ByzantineInjection> byzantine;

  /// Declared liar budget b (3b < n), stamped into the merged trace so the
  /// validator excuses exactly the declared liars.  0 with a non-empty
  /// `byzantine` plan derives b from the distinct liars in it.
  int byzantine_budget = 0;

  /// Round-closing policy (see net/synchronizer.hpp).  Lockstep is the
  /// historical default; pacemaker and faststep trade the grace window
  /// for leader pulses / full-set fast decisions.
  SyncKind synchronizer = SyncKind::Lockstep;

  /// Transient synchronizer-state corruptions to inject (fuzzing only;
  /// empty in normal runs).
  std::vector<SyncCorruption> sync_corruptions;

  /// Straggler window: after a round's quorum (n - t in-round messages) is
  /// reached, the synchronizer waits this long for the rest before closing
  /// the round.  Larger values mean fewer false suspicions and fewer
  /// delayed deliveries; smaller values mean faster rounds.  Doubles as
  /// the pacemaker's pulse-loss fallback and the fast path's full-set
  /// timeout.
  std::chrono::microseconds quorum_grace{400};

  /// 0 = a round waits indefinitely for its quorum (the indulgent mode:
  /// liveness only after GST).  Positive = close the round below quorum
  /// after this long — a model-violating escape valve for lossy runs.
  std::chrono::microseconds round_cap{0};

  /// Minimum wall-clock duration of a live round; 0 = rounds close as fast
  /// as the transport carries them.  Benches set this to emulate a network
  /// RTT on loopback: rounds are the unit the paper prices, and on a real
  /// link every round costs at least one RTT, which makes a single
  /// consensus group latency-bound — the regime where sharding pays.
  /// Ignored once a stop is draining, so shutdown stays fast.
  std::chrono::microseconds round_floor{0};

  /// Hard cap on rounds per process; hitting it stops the run un-terminated.
  Round max_rounds = 512;

  /// Seed of the router's latency / loss / jitter draws.
  std::uint64_t seed = 1;

  /// How long the shutdown drain waits for the final rounds' messages
  /// before closing below a full set (scheduling-jitter safety valve).
  std::chrono::microseconds drain_wait{100'000};
};

/// When a process' algorithm instance counts as finished.  The default —
/// `decision().has_value()` — fits single-shot consensus; the RSM service
/// passes "all slots committed" instead.  The runtime requests shutdown
/// once every non-crashed process is done.
using DonePredicate = std::function<bool(const RoundAlgorithm&)>;

/// Called by the process' own thread after each completed round, with the
/// wall-clock offset from run start.  Benches hang latency probes here.
/// One slot per process is touched concurrently — observers must only
/// mutate per-process state.
using RoundObserver = std::function<void(
    ProcessId pid, Round round, const RoundAlgorithm& algorithm,
    std::chrono::microseconds since_start)>;

}  // namespace indulgence
