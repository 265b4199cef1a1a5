// The fuzzing campaign: seeded random schedules, per-run judging, and
// automatic shrinking of the first find.
//
// One campaign sweeps `budget` random schedules for one target on the
// parallel campaign engine.  Determinism contract (same as every other
// campaign in this repository): run i's schedule is derived from
// Rng::for_stream(cell_seed(target name, config, seed), i) — never from the
// job count or chunk layout — and the reported first find is the
// lowest-index violating run, so a fuzz verdict is reproducible at any
// thread count and any single run can be regenerated from (seed, target,
// config, index) alone.
//
// Every find, of this sweep or of the live and socket sweeps
// (fuzz/live_fuzzer.hpp), is one FuzzFinding: the ReproCase that
// reproduces it.  claim_and_shrink sets its claim to the judge's verdict
// on the original schedule (replay_repro, fuzz/corpus.hpp) and shrinks it
// while that verdict still matches, so a written find replays to its claim
// by construction.  Its comment names the fuzz_consensus command that
// regenerates the sweep.

#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/targets.hpp"

namespace indulgence {

struct FuzzOptions {
  std::uint64_t seed = 1;
  long budget = 400;        ///< runs per (target, config) cell
  Round max_rounds = 64;    ///< kernel round cap per run
  FuzzGenOptions gen;
  bool shrink = true;       ///< minimize the first find
  CampaignOptions campaign;
  /// Wall-clock budget (same contract as LiveFuzzOptions::deadline): no new
  /// run starts past this point, checked between runs, never mid-run.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// What a sweep's oracle saw.  A schedule sweep finds violations only; the
/// live and socket sweeps' oracles report all four.
enum class FindingKind {
  InvalidTrace,   ///< a valid draw's merged trace failed validation
  UnflaggedLoss,  ///< copies were dropped, yet the validator said OK
  Violation,      ///< a target that owes safety broke its check
  Divergence,     ///< the kernel replay of the export disagreed with the run
};

const char* to_string(FindingKind kind);

/// One find of a schedule, live or socket sweep.
struct FuzzFinding {
  long run_index = -1;        ///< index within the (target, config) cell
  FindingKind kind = FindingKind::Violation;
  std::string description;    ///< what the sweep's oracle saw
  /// The repro that reproduces the find, post-shrink: its system,
  /// proposals, model and round cap are the find's, and its claim is the
  /// judge's verdict on `original`.
  ReproCase repro{};
  RunSchedule original{SystemConfig{.n = 3, .t = 0}};  ///< as generated
  ShrinkStats shrink_stats{};
};

/// Makes `finding` the repro that reproduces it.  `finding.repro` arrives
/// holding the find's schedule, which becomes `original`; the judge's
/// verdict on it becomes the claim.  When that claims a violation or an
/// invalid run and `shrink` is set, the schedule (and system) shrink while
/// the judge still says the repro matches its claim.
void claim_and_shrink(const FuzzTarget& target, FuzzFinding& finding,
                      bool shrink);

struct FuzzReport {
  std::string target;
  SystemConfig config;
  bool expect_safe = true;
  /// The sweep's effective expectation: for crash-only sweeps, Survives or
  /// Breaks from expect_safe; for --byz sweeps, the target's byz verdict.
  ByzExpectation expectation = ByzExpectation::Survives;
  int byz = 0;             ///< liar budget the sweep ran under
  long runs = 0;
  long invalid_runs = 0;   ///< generator emitted a model-invalid run (a bug)
  long violations = 0;
  bool wall_cutoff = false;  ///< the deadline stopped the sweep early
  std::optional<FuzzFinding> first;  ///< lowest-index violation

  /// The fuzz verdict agrees with the paper: safe targets survived every
  /// run, known-broken targets were caught, and the generator never left
  /// the model.  A sweep the wall clock cut short cannot prove a broken
  /// target broken, so a cutoff excuses a missing catch — never an invalid
  /// run or a violation by a safe target.  Vulnerable targets (known-unsafe
  /// under lies, corpus-backed) match either way.
  bool as_expected() const {
    if (invalid_runs != 0) return false;
    switch (expectation) {
      case ByzExpectation::Survives: return violations == 0;
      case ByzExpectation::Breaks: return violations > 0 || wall_cutoff;
      case ByzExpectation::Vulnerable: return true;
    }
    return false;
  }
};

/// Fuzzes one target on one system configuration.
FuzzReport fuzz_target(const FuzzTarget& target, SystemConfig config,
                       const FuzzOptions& options);

/// The per-run schedule the campaign would examine (exposed so tests can
/// regenerate any single run from (seed, target, config, index) alone).
RunSchedule fuzz_run_schedule(const FuzzTarget& target, SystemConfig config,
                              std::uint64_t seed, long run_index,
                              const FuzzGenOptions& gen,
                              std::vector<Value>* proposals_out = nullptr);

/// FNV-1a: stable across platforms, so a sweep's seed stream does not
/// depend on the target's position in the registry.
std::uint64_t fnv1a(std::string_view text);

/// The seed of one sweep cell: `seed` mixed with the hash of `stream` (the
/// target name, behind "live:" or "socket:" for the live sweeps, so no two
/// sweeps shadow each other) and with the system size.
std::uint64_t cell_seed(std::string_view stream, const SystemConfig& config,
                        std::uint64_t seed);

}  // namespace indulgence
