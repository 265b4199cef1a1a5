// The serialized repro corpus: `.sched` files that bundle a schedule with
// everything needed to re-judge it.
//
// A corpus entry is a complete, self-contained regression test: which
// algorithm to run (a fuzz target name), which predicate to check, what the
// verdict must be, and the schedule itself in sim/schedule_io.hpp syntax.
// tests/corpus/ holds the permanent entries — E2's counterexamples, E9's
// laggard attack, the minimized X1 ablation repros — and the corpus-replay
// test re-runs every file on each CI run, so a bug once captured can never
// silently regress.
//
// replay_repro is the one kernel judge of a repro.  Every fuzz find, from
// a schedule, live or socket sweep, is the ReproCase that reproduces it:
// the judge's verdict on the find's original schedule is its claim, the
// shrinker keeps that verdict matching, and the corpus replay checks it.
//
//   repro v1
//   # free-form commentary
//   algo at2-fscheck
//   check consensus          (optional; default: the target's check)
//   expect violation         ('violation', 'ok', or 'invalid')
//   model ES                 (optional; default: the target's model)
//   max-rounds 64            (optional; default 64)
//   proposals 0 1 2          (optional; default: distinct 0..n-1)
//   sched v1
//   system n=3 t=1
//   ...

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "sim/harness.hpp"
#include "sim/schedule.hpp"

namespace indulgence {

struct FuzzTarget;

struct ReproCase {
  std::string algo;                   ///< fuzz target name
  std::optional<std::string> check;   ///< predicate override
  bool expect_violation = false;
  /// 'expect invalid': the schedule itself is out of model (live loss
  /// exports) and the entry reproduces iff the validator rejects it.
  bool expect_invalid = false;
  std::optional<Model> model;         ///< model override
  Round max_rounds = 64;
  std::vector<Value> proposals;       ///< empty: distinct 0..n-1
  std::string comment;                ///< leading '#' lines, without the '#'
  RunSchedule schedule{SystemConfig{.n = 3, .t = 0}};

  SystemConfig config() const { return schedule.config(); }
};

/// Canonical text form (parse_repro(print_repro(r)) reproduces r).
std::string print_repro(const ReproCase& repro);

/// Parses one `.sched` repro document; throws ScheduleParseError (from the
/// schedule part) or std::runtime_error (malformed meta) on bad input.
ReproCase parse_repro(std::string_view text);

/// Reads and parses one file; throws std::runtime_error on I/O failure.
ReproCase load_repro_file(const std::string& path);

/// All `*.sched` files of a directory, sorted by file name; the string is
/// the bare file name (corpus entries are addressed by it in test output).
std::vector<std::pair<std::string, ReproCase>> load_corpus_dir(
    const std::string& dir);

/// The replayed verdict of one corpus entry.
struct ReplayVerdict {
  std::string name;             ///< file name (or target name for fuzz finds)
  bool expect_violation = false;
  bool expect_invalid = false;
  bool model_valid = false;
  bool violation = false;
  std::string detail;           ///< the predicate's description, if violated

  /// The entry still reproduces: an expect-invalid entry must be rejected
  /// by the validator; any other entry must be model-valid with exactly the
  /// claimed violation verdict.
  bool matches() const {
    if (expect_invalid) return !model_valid;
    return model_valid && violation == expect_violation;
  }

  friend bool operator==(const ReplayVerdict&, const ReplayVerdict&) = default;
};

/// Runs `repro`'s schedule for `target` through the kernel, under the
/// repro's model and round cap (the model defaults to the target's).
RunResult run_repro(const FuzzTarget& target, const ReproCase& repro,
                    AlgorithmInstances* algorithms_out = nullptr);

/// The judge: runs `repro` for `target` and judges the run with the repro's
/// check (default: the target's).  The verdict is named after the target.
ReplayVerdict replay_repro(const FuzzTarget& target, const ReproCase& repro);

/// Resolves the entry's target by name, then judges it as above; the
/// verdict is named `name`.  Throws std::runtime_error when the entry names
/// an unknown target.
ReplayVerdict replay_repro(const std::string& name, const ReproCase& repro);

/// Replays a whole corpus on the campaign engine; the verdict list is in
/// corpus order and identical at any job count.
std::vector<ReplayVerdict> replay_corpus(
    const std::vector<std::pair<std::string, ReproCase>>& corpus,
    CampaignOptions campaign = {});

}  // namespace indulgence
