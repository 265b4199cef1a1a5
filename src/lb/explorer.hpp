// Exhaustive enumeration of adversary behaviours for small (n, t).
//
// The lower bound (Proposition 1) quantifies over runs; for small systems we
// can enumerate them.  A run is described by one AdversaryAction per round:
//
//   * NoOp            — crash-free, fully synchronous round;
//   * Crash{v, S}     — v crashes this round; exactly the processes in S
//                       receive its final round message (S = empty models a
//                       crash before the send phase, as survivors cannot
//                       tell the difference);
//   * Delay{v, H, d}  — ES only: v stays alive but its round message to the
//                       processes in H arrives d rounds late (they falsely
//                       suspect v this round).
//
// At most one action per round ("serial" adversaries, exactly the runs the
// paper's proof plays with), and every action respects the ES t-resilience
// receipt bound by construction: a receiver can miss at most t current-round
// messages, counting already-crashed senders.
//
// Two consumers:
//   * SyncRunExplorer — synchronous runs only ({NoOp, Crash}): exact
//     worst-case/best-case global decision rounds, agreement/validity over
//     ALL synchronous serial runs (tightness of Lemma 13, R4/R5 round
//     counts);
//   * the attack search in attack.hpp — adds Delay actions and hunts for a
//     single ES run violating agreement (Proposition 1, made executable).
//
// Beside them sits the one crash-delivery search, worst_case_over_deliveries:
// fixed crash slots (victim, round) whose final-message delivery patterns
// are enumerated or sampled, optionally after a caller-built asynchronous
// prefix (sim/harness.hpp's camp_split_prefix) — E7, E8, X4 and the tests
// measure the coordinator/leader worst cases through it.

// Sweeps are executed on the parallel campaign engine (common/thread_pool):
// the action-sequence space is partitioned into independent chunks by its
// FIRST-ROUND action, each chunk is explored depth-first on a pool worker
// with its own reusable RunContext, and the per-chunk partial statistics
// are merged in chunk order.  Because every partial is a monoid with
// left-biased tie-breaking, the totals — including which schedule is
// reported as worst — are bit-identical at any job count, and identical to
// the sequential sweep (INDULGENCE_JOBS=1 forces the inline path).

#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/harness.hpp"

namespace indulgence {

struct AdversaryAction {
  enum class Kind { NoOp, Crash, Delay } kind = Kind::NoOp;
  ProcessId victim = -1;
  std::uint64_t mask = 0;   ///< Crash: receivers of the final message;
                            ///< Delay: receivers whose copy is late
  Round delay = 0;          ///< Delay: lateness in rounds (>= 1)

  std::string to_string() const;
};

/// The actions available in round `round`, given who is still alive and how
/// many crashes happened already.  `allow_delays` enables the ES Delay
/// actions (with lateness `delay_gap`).
std::vector<AdversaryAction> enumerate_actions(const SystemConfig& config,
                                               const ProcessSet& alive,
                                               int crashes_so_far,
                                               bool allow_delays,
                                               Round delay_gap);

/// Builds the explicit schedule realizing one action sequence (actions[i]
/// applies to round i + 1; rounds beyond the sequence are crash-free).
RunSchedule schedule_from_actions(const SystemConfig& config,
                                  const std::vector<AdversaryAction>& actions);

/// Enumerates every serial action sequence of length `rounds` and calls
/// `visit`; returns the number of sequences visited.  `visit` returning
/// false stops the enumeration early.
long for_each_action_sequence(
    const SystemConfig& config, Round rounds, bool allow_delays,
    Round delay_gap,
    const std::function<bool(const std::vector<AdversaryAction>&)>& visit);

/// As for_each_action_sequence, but enumerates only the sequences that
/// begin with `prefix` (serial actions already chosen for rounds
/// 1..prefix.size()).  This is the campaign engine's partitioning primitive:
/// the sequence space splits into one independent subtree per first-round
/// action, and a worker sweeps one subtree per work item.
long for_each_action_sequence_from(
    const SystemConfig& config, const std::vector<AdversaryAction>& prefix,
    Round rounds, bool allow_delays, Round delay_gap,
    const std::function<bool(const std::vector<AdversaryAction>&)>& visit);

/// Exhaustive sweep over all synchronous serial runs of an algorithm.
class SyncRunExplorer {
 public:
  struct Stats {
    long runs = 0;
    Round max_decision_round = 0;
    Round min_decision_round = 0;
    bool all_valid = true;        ///< every trace passed the model validator
    bool all_agreement = true;
    bool all_validity = true;
    bool all_terminated = true;
    std::set<Value> decision_values;  ///< across all runs
    std::optional<RunSchedule> worst_schedule;

    bool all_ok() const {
      return all_valid && all_agreement && all_validity && all_terminated;
    }

    /// Monoid merge of a later chunk's partial statistics into this one.
    /// Counts add, flags AND, value sets union; the worst schedule is
    /// replaced only on a STRICTLY larger decision round, so the earliest
    /// witness (in enumeration order) wins at any chunking.
    void merge(const Stats& other);
  };

  SyncRunExplorer(SystemConfig config, AlgorithmFactory factory,
                  std::vector<Value> proposals);

  /// Enumerates all serial synchronous runs whose crashes happen within the
  /// first `action_rounds` rounds (use >= t to cover every serial pattern
  /// that matters) and runs each to completion (cap `max_rounds`).  The
  /// sweep executes on `campaign.jobs` workers; results are independent of
  /// the job count.
  Stats explore(Round action_rounds, Round max_rounds = 64,
                CampaignOptions campaign = {});

 private:
  SystemConfig config_;
  AlgorithmFactory factory_;
  std::vector<Value> proposals_;
};

/// A crash whose round and victim are fixed but whose delivery pattern (who
/// receives the final message) is left to the search.
struct CrashSlot {
  ProcessId victim = -1;
  Round round = 0;
};

struct WorstCaseResult {
  Round worst_decision_round = 0;
  long runs = 0;
  std::optional<RunSchedule> schedule;
  bool all_ok = true;  ///< consensus + model held in every examined run

  /// Monoid merge (see SyncRunExplorer::Stats::merge): strictly-greater
  /// replacement keeps the earliest worst schedule at any chunking.
  void merge(const WorstCaseResult& other);
};

/// Maximizes the global decision round over the delivery patterns of the
/// given crash slots.  Joint-exhaustive when the pattern space is within
/// `exhaustive_limit`, otherwise seeded random sampling with `samples`
/// draws.  Each run is the crash slots added to a copy of `prefix` — a
/// builder holding a GST and pre-GST delays, such as camp_split_prefix
/// makes — or, when `prefix` is null, to a synchronous run.  Used to find
/// the worst runs of the coordinator/leader baselines (2t+2 for
/// Hurfin-Raynal, k+2f+2 for AMR) where the simple canned schedules are not
/// adversarial enough.
///
/// The pattern space is swept in chunks on the campaign engine.  Sampled
/// mode pre-draws the sample list from Rng(seed) before partitioning, so
/// the examined patterns — and therefore the result — do not depend on the
/// job count and match the sequential sweep draw-for-draw.
WorstCaseResult worst_case_over_deliveries(
    SystemConfig config, const AlgorithmFactory& factory,
    const std::vector<Value>& proposals, const std::vector<CrashSlot>& slots,
    long exhaustive_limit = 1 << 16, long samples = 4096,
    std::uint64_t seed = 1, Round max_rounds = 64,
    CampaignOptions campaign = {}, const ScheduleBuilder* prefix = nullptr);

}  // namespace indulgence
