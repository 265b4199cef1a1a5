// The fuzzable algorithm registry.
//
// A FuzzTarget names one algorithm configuration the fuzzer can sweep: the
// factory, the model its guarantees are stated in (FloodSet and friends are
// SCS algorithms; the indulgent stack is ES), the predicate that defines
// "violation" for it, and whether the paper says it must survive (the seven
// real algorithms) or must break (the ablated / truncated A_{t+2} variants,
// which exist precisely so the fuzzer has known bugs to rediscover).
//
// Target names are stable strings: `.sched` repro files in tests/corpus/
// reference them, so renaming a target orphans corpus entries.
//
// rejection() is the one rule for a system size a target cannot run: an
// all-target sweep skips such a target, and shrinking a find never moves
// to such a size.  Nothing else is skipped.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lb/attack.hpp"

namespace indulgence {

/// Expected verdict under budgeted-liar (--byz) sweeps.  `Vulnerable` is for
/// targets that ARE unsafe under lies but whose break needs a coordinated
/// attack the random generator is not guaranteed to stumble on within a
/// smoke budget — the checked-in corpus repros prove those breaks
/// deterministically, so the sweep reports findings without requiring them.
enum class ByzExpectation {
  Survives,    ///< must uphold consensus under every budgeted-liar run
  Breaks,      ///< the byz fuzzer must rediscover the break
  Vulnerable,  ///< known-unsafe; discovery is best-effort, corpus-backed
};

struct FuzzTarget {
  std::string name;     ///< stable key, referenced by `.sched` repro files
  std::string summary;  ///< one line for --list output
  Model model = Model::ES;
  bool expect_safe = true;      ///< paper's verdict under model-valid runs
  std::string check = "consensus";  ///< default predicate (find_check key)
  AlgorithmFactory factory;
  /// Verdict under --byz sweeps (crash-only algorithms default to
  /// Vulnerable: one liar defeats them, but only on the right schedule).
  ByzExpectation byz = ByzExpectation::Vulnerable;
  /// Swept only under --byz: the A_{t+2}^auth ablations are not crash-only
  /// algorithms and carry no verdict for liar-free runs.
  bool byz_only = false;
};

/// All registered targets: the seven real algorithms (three SCS FloodSet
/// variants, the indulgent A_{t+2} / A_{<>S} / A_{f+2} stack, Hurfin-Raynal)
/// followed by the deliberately broken variants (X1 ablations, the
/// truncated "A_{t+1}" of E2).
const std::vector<FuzzTarget>& fuzz_targets();

/// Lookup by name; nullptr when unknown.
const FuzzTarget* find_fuzz_target(std::string_view name);

/// Why `target`'s algorithm rejects `config` outright (A_{f+2} needs
/// t < n/3, A_{t+2}^auth n > 3t): the message of the std::invalid_argument
/// constructing it throws, or nullopt when it accepts the system.
std::optional<std::string> rejection(const FuzzTarget& target,
                                     const SystemConfig& config);

/// Named violation predicates usable in `.sched` files:
///   "consensus"   - agreement, validity, or termination broken;
///   "elimination" - Lemma 6 broken (two distinct non-BOTTOM new estimates).
/// Throws std::invalid_argument for unknown names.
ViolationPredicate find_check(std::string_view name);

/// The "consensus" predicate: agreement_or_validity_violation plus the
/// termination check (every correct process decided within the round cap).
std::optional<std::string> consensus_violation(
    const RunResult& result, const AlgorithmInstances& instances);

}  // namespace indulgence
