// Scripted replay: run an explicit RunSchedule over real threads.
//
// The scripted transport resolves each broadcast copy's fate straight from
// the schedule — Deliver pins the copy to its send round, Delay pins it to
// the schedule's later round, Lose drops it — and the ScriptView tells each
// driver exactly how many round-k envelopes to wait for, so a replay is
// deterministic: the per-round delivery batches equal the lockstep
// kernel's on the same schedule, message for message, and therefore so do
// the decisions and decision rounds.  This is the bridge that lets every
// live-runtime divergence be replayed, shrunk, and archived through the
// existing fuzz workflow, and the equivalence tests' ground truth.

#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "net/options.hpp"
#include "net/transport.hpp"
#include "sim/schedule.hpp"

namespace indulgence {

/// Read-only answers about a schedule that every driver thread needs each
/// round.  Built once before the threads start; all methods are const and
/// touch no mutable state, so concurrent use is safe.
class ScriptView {
 public:
  ScriptView(SystemConfig config, const RunSchedule& schedule);

  const RunSchedule& schedule() const { return *schedule_; }

  /// True iff `pid` performs the send phase of round k under the schedule
  /// (not crashed earlier, not crashed-before-send in k).
  bool sends_in_round(ProcessId pid, Round k) const;

  /// Number of round-k messages process `receiver` receives during round k
  /// itself, self-delivery included.
  int expected_in_round(ProcessId receiver, Round k) const;

  /// Number of earlier-round messages falling due for `receiver` in round k.
  int expected_delayed(ProcessId receiver, Round k) const;

  /// The (single) scripted crash of `pid`, if any.
  std::optional<CrashInjection> crash_of(ProcessId pid) const;

 private:
  SystemConfig config_;
  const RunSchedule* schedule_;
  std::vector<Round> crash_round_;      ///< 0 = never crashes
  std::vector<char> crash_before_send_;
  Round last_planned_ = 0;
};

/// Fans every broadcast out according to the schedule, inline on the
/// sender's thread — scripted replay needs no wall-clock, only the
/// receive-round pinning carried by NetEnvelope.
class ScriptTransport final : public Transport {
 public:
  ScriptTransport(SystemConfig config, const RunSchedule& schedule,
                  std::vector<std::unique_ptr<Mailbox>>& mailboxes);

  void dispatch(ProcessId sender, Round round, MessagePtr payload) override;

  long dropped_copies() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  SystemConfig config_;
  const RunSchedule* schedule_;
  std::vector<std::unique_ptr<Mailbox>>* mailboxes_;
  std::atomic<long> dropped_{0};
};

}  // namespace indulgence
