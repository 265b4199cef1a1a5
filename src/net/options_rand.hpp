// Seeded randomization of LiveOptions for the live fuzzer.
//
// Two draw profiles, mirroring the two halves of the live model:
//
//   * a VALID draw stays inside eventual synchrony by construction — random
//     pre/post-GST latency floors and jitter, a wall-clock GST offset,
//     quorum-grace pacing, bounded partition windows (held, never lost),
//     and up to t round-indexed crash injections.  The resulting trace must
//     pass the validator; if it does not, the live runtime itself is buggy.
//
//   * a LOSSY draw deliberately steps outside the model — heavy pre-GST
//     loss under a GST that never arrives, with the round_cap escape valve
//     keeping rounds finite.  Any dropped copy breaks reliable channels, so
//     the validator MUST flag the trace; if it does not, the checker is
//     blind to real network faults.
//
// Both draws consume a caller-provided Rng only (Rng::for_stream per run
// index in the campaign), so a drawn option set is reproducible from
// (seed, run index) alone — including options.seed, which governs the
// router's own latency/loss stream.  The draws' ranges are constants of
// options_rand.cpp: a wall-clock GST offset of at most 2 ms (the chaos
// window's bound too), up to 2 partitions, crash rounds in [1, 4], and a
// lossy round cap in [2, 8] ms.  The synchronizer is the one settable
// value.

#pragma once

#include "common/rng.hpp"
#include "net/options.hpp"
#include "net/socket_transport.hpp"
#include "sim/process.hpp"

namespace indulgence {

struct LiveGenOptions {
  /// Round-closing policy stamped onto every draw (`fuzz_consensus
  /// --sync`).  Non-lockstep draws also sample transient synchronizer
  /// corruptions (appended after all other draws, so lockstep streams are
  /// unchanged for existing seeds).
  SyncKind synchronizer = SyncKind::Lockstep;
};

/// A model-valid LiveOptions draw (see file comment).  max_rounds is 64 and
/// loss_prob / round_cap stay 0: liveness comes from the quorum gate alone.
LiveOptions random_valid_live_options(const SystemConfig& config, Rng& rng,
                                      const LiveGenOptions& gen = {});

/// An expected-invalid draw: loss_prob in [0.75, 1], GST one hour out,
/// round_cap as the only way rounds close, max_rounds in [2, 4], and a
/// short drain so a run costs milliseconds, not drain timeouts.
LiveOptions random_lossy_live_options(const SystemConfig& config, Rng& rng,
                                      const LiveGenOptions& gen = {});

/// A LiveOptions draw for the SOCKET campaign: the valid profile minus the
/// router-only fields (partitions are a LiveRouter feature the socket
/// fabric would silently ignore, so they are cleared rather than misleadingly
/// carried along).  Crashes stay — the round driver injects those above the
/// transport.  The wire replaces loss with chaos: see random_wire_chaos.
LiveOptions random_socket_live_options(const SystemConfig& config, Rng& rng,
                                       const LiveGenOptions& gen = {});

/// A seeded wire-chaos draw, the socket campaign's pre-GST adversary: a
/// wall-clock window of up to 2 ms during which connects abort, accepted
/// connections close, writes become resets, stalls, or byte-at-a-time
/// dribbles.  A window of 0 (about 1 draw in 2,000) is a clean run.  The
/// supervisor must absorb all of it: the merged trace still has to
/// satisfy the unchanged validator.
WireChaosOptions random_wire_chaos(Rng& rng);

}  // namespace indulgence
