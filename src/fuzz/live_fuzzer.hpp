// The live fuzz campaign: randomized LiveOptions sweeps over real threads,
// re-checked by the unchanged Validator and cross-checked against the
// lockstep kernel via the trace exporter.
//
// The wall-clock counterpart of fuzz/fuzzer.hpp.  Each run draws one of two
// option profiles from net/options_rand.hpp:
//
//   * VALID draws (3 of 4) stay inside eventual synchrony by construction:
//     random latency/jitter, a wall-clock GST offset, quorum-grace pacing,
//     bounded partitions, up to t crash injections.  Oracle: the merged
//     trace must pass the validator (InvalidTrace otherwise), ES-safe
//     targets must uphold consensus (Violation otherwise), and the kernel
//     replay of the exported schedule must agree with the live run on
//     validity and on every per-process first-decision round (Divergence
//     otherwise).
//
//   * LOSSY draws (1 of 4) step outside the model on purpose: heavy
//     pre-GST loss under a GST that never arrives, rounds closed by the
//     round_cap valve.  Oracle: any run that dropped a copy must be flagged
//     invalid (UnflaggedLoss otherwise), and the kernel replay of the
//     export must be flagged invalid too (Divergence otherwise).
//
// Violations by targets whose guarantees do not cover asynchronous timing —
// the SCS FloodSet family and the deliberately broken variants — are the
// expected behaviour the paper predicts ("caught", reported on stderr by
// the driver), not findings.  A healthy repository therefore produces ZERO
// findings, which is what makes the report table deterministic: with a
// fixed seed and no wall-clock cutoff every column is derived from the
// seed stream alone, at any job count (the INDULGENCE_JOBS=1 contract).
//
// Live draws run on LiveRuntime's router; socket draws (--socket) run on
// run_sharded over real Unix sockets, one group over n nodes unless
// --groups asks for more.
//
// Live runs cannot be regenerated from their index (wall-clock timing is
// part of the input), so the lowest-index finding carries its exported
// schedule through the campaign reduce; shrinking operates on that export
// with the PR-2 delta-debugging shrinker whenever the defect reproduces
// under the kernel.

#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/targets.hpp"
#include "net/options_rand.hpp"

namespace indulgence {

struct LiveFuzzOptions {
  std::uint64_t seed = 1;
  long budget = 25;        ///< live runs per (target, config) cell
  bool shrink = true;      ///< minimize the first finding's export
  LiveGenOptions gen;
  CampaignOptions campaign;
  /// Wall-clock budget: no new run starts past this point (checked between
  /// runs, never mid-run).  nullopt = runs budget only.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Run over real Unix-domain sockets (run_sharded, one group over n
  /// nodes) instead of the in-memory router: every draw is a valid
  /// profile (sockets never drop copies) plus a seeded wire-chaos window;
  /// the oracle is unchanged.  Uses a distinct seed stream so --live and
  /// --socket sweeps do not shadow each other.
  bool socket = false;
  /// Socket campaign only: > 1 runs that many independent groups of the
  /// target per draw over ONE shared group-multiplexed fabric (run_sharded
  /// over n or n+1 node endpoints), with the drawn wire-chaos window
  /// hitting the links every group shares.  Each group gets its own
  /// proposals and is judged independently by the unchanged oracle
  /// (validator + consensus check + kernel replay of its export), so any
  /// cross-group bleed in the demux layer surfaces as a finding in the
  /// group it corrupted.  Crash injections are cleared for these draws:
  /// chaos is the adversary, and a per-pid crash applied to every group at
  /// once would only blur which layer failed.
  int groups = 1;
};

enum class LiveFindingKind {
  InvalidTrace,    ///< valid draw, but the merged trace failed validation
  UnflaggedLoss,   ///< copies were dropped, yet the validator said OK
  Violation,       ///< an ES-safe target broke consensus on a valid run
  Divergence,      ///< kernel replay of the export disagreed with the run
};

const char* to_string(LiveFindingKind kind);

/// One unexpected live run, carrying its exported schedule (live runs are
/// not regenerable from the seed; the export IS the repro).
struct LiveFinding {
  long run_index = -1;
  LiveFindingKind kind = LiveFindingKind::InvalidTrace;
  std::string description;
  SystemConfig config;
  std::vector<Value> proposals;
  RunSchedule schedule{SystemConfig{}};  ///< exported, post-shrink
  RunSchedule original{SystemConfig{}};  ///< exported exactly as recorded
  Round max_rounds = 64;     ///< kernel horizon (the run's rounds_executed)
  ShrinkStats shrink_stats;
  int planned_rounds = 0;
};

struct LiveFuzzReport {
  std::string target;
  SystemConfig config;
  Model model = Model::ES;
  bool expect_safe = true;
  long runs = 0;             ///< actually executed (< budget after cutoff)
  long lossy_runs = 0;       ///< expected-invalid profile draws among runs
  long flagged_invalid = 0;  ///< lossy runs the validator rejected
  long caught = 0;           ///< expected violations (SCS / broken targets)
  long findings = 0;
  bool wall_cutoff = false;  ///< the deadline stopped the sweep early
  /// Socket campaign only: supervisor counters summed over every run, so
  /// the driver can report how much chaos the sweep actually survived.
  SocketCounters socket_counters;
  std::optional<LiveFinding> first;  ///< lowest-index finding, minimized

  /// Healthy: no findings, and every lossy run was flagged invalid.
  bool as_expected() const {
    return findings == 0 && flagged_invalid == lossy_runs;
  }
};

/// Sweeps `budget` randomized live runs of one target.  Deterministic
/// contract: run i's options and proposals derive from
/// Rng::for_stream(seed', i) alone, so with no wall cutoff the profile
/// counts — and, on a healthy repository, the whole report — are identical
/// at any job count.
LiveFuzzReport live_fuzz_target(const FuzzTarget& target, SystemConfig config,
                                const LiveFuzzOptions& options);

/// The drawn (options, proposals, lossy?) triple of one run, exposed so
/// tests can pin the determinism contract without executing the run.
struct LiveRunPlan {
  bool lossy = false;
  LiveOptions options;
  std::vector<Value> proposals;
  WireChaosOptions chaos;  ///< socket plans only; all-zero probs otherwise
};
LiveRunPlan live_fuzz_run_plan(const FuzzTarget& target, SystemConfig config,
                               std::uint64_t seed, long run_index,
                               const LiveGenOptions& gen = {});

/// The socket campaign's per-run draw: always a valid profile (partitions
/// cleared — sockets hold, they never cut) plus a wire-chaos window, from a
/// "socket:"-prefixed seed stream decorrelated from live_fuzz_run_plan's.
LiveRunPlan live_socket_run_plan(const FuzzTarget& target, SystemConfig config,
                                 std::uint64_t seed, long run_index,
                                 const LiveGenOptions& gen = {});

/// Wraps a live finding as a corpus document (expect 'invalid' for
/// InvalidTrace/UnflaggedLoss exports, 'violation' for Violation).
ReproCase live_finding_to_repro(const FuzzTarget& target,
                                const LiveFinding& finding,
                                std::uint64_t seed);

/// Deterministic corpus seeds, regenerable byte-for-byte:
///
///   * the LOSS sample runs hr at n=3 t=1 under total pre-GST loss with a
///     25 ms wall-clock GST and 10 ms round caps — three fully-dropped
///     rounds, then synchronous recovery and a normal decision.  Every
///     timing margin is >= 5 ms, so the exported bytes are identical on
///     every machine and the entry replays 'invalid' under the kernel.
///
///   * the CRASH/PARTITION sample runs at2 at n=5 t=2 with a partition
///     healing right at the wall-clock GST and p4 crashed before-send from
///     round 1 — the boundary the round synchronizer gets wrong first if it
///     gets anything wrong.  (Round 1 before-send keeps the export byte
///     stable: a mid-run crash races its instant crash report against its
///     own previous-round copies still on the latency path.)  Replays 'ok'.
std::pair<std::string, ReproCase> live_loss_sample();
std::pair<std::string, ReproCase> live_crash_partition_sample();

/// The multi-group corpus seed: group 1 of a clean 3-group sharded socket
/// run of at2 at n=3 over 4 node endpoints.  Its envelopes shared every
/// link (and every link's seq/ack stream) with groups 0 and 2, so the
/// exported per-group trace exists only because the demux layer routed
/// correctly; it must replay 'ok' under the kernel.
std::pair<std::string, ReproCase> live_sharded_sample();

}  // namespace indulgence
