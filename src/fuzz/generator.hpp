// Seeded random schedule generation for the fuzzer.
//
// The generator reuses the random adversaries of sim/adversary.hpp — which
// maintain the model constraints (t-resilience, reliable channels, eventual
// synchrony after GST) by construction — and records their per-round plans
// into an explicit RunSchedule.  Recording first, running second keeps every
// fuzz run replayable byte-for-byte: the schedule IS the run, and a find can
// be serialized, shrunk, and checked into tests/corpus/ unchanged.
//
// Randomness discipline: one Rng per run, derived by the caller via
// Rng::for_stream(seed, run_index), so a campaign examines the same
// schedules at any job count and any single run replays in isolation.
//
// The draw's ranges are constants of generator.cpp: an ES GST in [1, 6],
// and an adversary active for up to 3 rounds past its GST (past t + 2 in
// SCS).  The liar budget is the one settable value.

#pragma once

#include "common/rng.hpp"
#include "sim/adversary.hpp"
#include "sim/schedule.hpp"

namespace indulgence {

struct FuzzGenOptions {
  /// Byzantine liar budget b (0 = crash-only, the historical draw stream).
  /// With b > 0 the crash budget shrinks to t - b (crashes + liars <= t,
  /// the A_{t+2}^auth guarantee), b non-crashed liars are drawn, and lie
  /// events are APPENDED to the schedule — all byz draws happen after the
  /// crash-schedule draws, so b = 0 reproduces every historical seed.
  int byz = 0;
};

/// Drives `adversary` for rounds 1..rounds and records the non-empty plans
/// (plus the adversary's GST) into an explicit schedule.
RunSchedule record_adversary(const SystemConfig& config, Adversary& adversary,
                             Round rounds);

/// One random model-valid schedule.  ES draws a GST, per-run probabilities,
/// laggard delays, and crash fates; SCS draws only crashes and crash-round
/// losses.  Everything is derived from `rng`, so equal (config, model, rng
/// state) means an identical schedule.
RunSchedule random_run_schedule(const SystemConfig& config, Model model,
                                Rng& rng, const FuzzGenOptions& options = {});

/// A random proposal vector (shared by the schedule and live fuzzers):
/// half the draws are the canonical distinct 0..n-1, a quarter reversed, a
/// quarter a Fisher-Yates shuffle.  Always a permutation, so validity keeps
/// a meaningful bite.  The draw sequence is part of the per-run determinism
/// contract — changing it renumbers every historical (seed, index) find.
std::vector<Value> random_proposals(const SystemConfig& config, Rng& rng);

}  // namespace indulgence
