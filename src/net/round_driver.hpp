// The round synchronizer: one RoundDriver per process, each on its own
// thread, adapting the lockstep RoundAlgorithm interface (propose /
// message_for_round / on_round) to an asynchronous network of mailboxes.
//
// Each driver executes the paper's two-phase round structure against real
// time: broadcast the round-k message (self-delivery inline, like the
// kernel's), then gate on the mailbox until the round can close —
// scripted mode waits for the exact envelope counts the schedule implies,
// live mode waits for every possibly-live sender, or a quorum of n - t
// plus whatever straggler policy the configured RoundSynchronizer runs
// (net/synchronizer.hpp: lockstep grace window, leader pacemaker, or the
// two-step fast path).  Early envelopes (from rounds the receiver has not
// reached) are buffered and adopted when their round starts, so a fast
// peer can never make a slow one mis-classify an in-round message as
// delayed: "in round" is a property of the receiver's own round counter,
// exactly as the validator defines it.
//
// Shutdown is the armed-stop protocol.  Once every live process reports
// done (or a round cap fires), RunControl requests a stop; each driver,
// at its next round boundary, arms once with the last round it completed,
// and the stop round S becomes the maximum over all live processes'
// candidates.  A driver may exit only when every live process has armed
// and its own next round exceeds S — so every live process sends and
// completes exactly rounds 1..S, which is precisely the shape the
// validator's synchrony and reliable-channel checks assume of a finished
// run.

#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "net/options.hpp"
#include "net/script.hpp"
#include "net/synchronizer.hpp"
#include "net/transport.hpp"
#include "sim/message.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"

namespace indulgence {

/// Everything one process thread observed, recorded lock-free on that
/// thread and merged into a RunTrace after all threads join.
struct ProcessLog {
  Value proposal = kBottom;
  std::vector<SendRecord> sends;
  std::vector<DeliveryRecord> deliveries;
  std::vector<DecisionRecord> decisions;
  std::optional<CrashRecord> crash;
  Round halt_round = 0;  ///< 0 = never halted
  Round completed = 0;   ///< last fully executed round
  bool done = false;     ///< done-predicate held at exit
  /// Reliable-channel resends suppressed before they could double-count
  /// toward the quorum gate: copies of a (sender, send_round) pair this
  /// process had already received.
  long duplicate_copies = 0;
  /// Reorder-buffer leftovers at exit: scripted delays targeting rounds
  /// beyond the stop round.  They become the trace's pending records.
  std::vector<UndeliveredCopy> leftovers;
};

/// Shared coordination between driver threads: done/crash accounting and
/// the armed-stop shutdown protocol.  All methods are thread-safe.
class RunControl {
 public:
  explicit RunControl(SystemConfig config);

  /// Optional hook fired exactly once when the stop is first requested
  /// (the driver runner expedites the group's transports here).  Set
  /// before the driver threads start.
  std::function<void()> on_stop;

  void report_done(ProcessId pid);
  void report_crash(ProcessId pid);

  /// Requests a stop regardless of done accounting; `completed` says
  /// whether the run counts as terminated (false for round-cap aborts).
  void force_stop(bool completed);

  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// True when the run is stopping abnormally (round cap, peer failure);
  /// scripted gates bail out instead of waiting for envelopes that will
  /// never be sent.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// The atomic round-boundary decision after a stop was requested: driver
  /// `pid` stands at the start of round `next_round`, having completed
  /// next_round - 1.  Returns true when the driver may exit — every live
  /// driver has reached a boundary (armed) and no live driver has committed
  /// to a round >= next_round.  Returns false when the driver must execute
  /// round next_round, in which case that round is committed as part of the
  /// stop round S *before* the lock is released — so no peer can exit
  /// without completing it, and all live processes finish on the same S.
  bool boundary(ProcessId pid, Round next_round);

  int crashed_count() const {
    return crashed_n_.load(std::memory_order_acquire);
  }

  /// Whether `pid` has reported a crash — the pacemaker's failure
  /// detector for coordinator rotation.
  bool is_crashed(ProcessId pid) const;

  /// True when the run stopped because every live process was done (as
  /// opposed to a round-cap abort).
  bool completed_normally() const;

 private:
  void request_stop_locked(bool completed, bool& fire);
  bool all_live_armed_locked() const;
  /// The stop round S: the maximum boundary candidate over processes that
  /// are still live.  A crashed process' candidate is dropped — its
  /// committed rounds will never be sent, so holding live peers to them
  /// would spin empty grace windows (and its armed bit is cleared by
  /// report_crash for the same reason).
  Round stop_round_locked() const;

  SystemConfig config_;
  mutable std::mutex mutex_;
  std::vector<char> done_;
  std::vector<char> crashed_;
  std::vector<char> armed_;
  std::vector<Round> candidate_;
  bool stopped_ = false;
  bool completed_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<int> crashed_n_{0};
};

/// What one driver runs with.  The fields down to `epoch` are its group's,
/// shared by every replica of the group; DriverRunner::add_group fills the
/// rest per hosted replica.
struct DriverContext {
  SystemConfig config;
  const LiveOptions* options = nullptr;
  const ScriptView* script = nullptr;  ///< null = live mode
  /// > 0: run exactly rounds 1..fixed_rounds and exit — the multi-process
  /// mode, where no shared-memory RunControl can run the armed-stop
  /// protocol across address spaces, so every process agrees on the round
  /// count a priori instead.  0 = armed-stop shutdown (single-process).
  Round fixed_rounds = 0;
  AlgorithmFactory factory;
  DonePredicate done;       ///< null = "has decided"
  RoundObserver observer = nullptr;
  std::chrono::steady_clock::time_point epoch;

  ProcessId self = -1;
  Transport* transport = nullptr;
  Mailbox* mailbox = nullptr;
  Value proposal = kBottom;
  RunControl* control = nullptr;
  /// The group's shared pulse board (pacemaker synchronizer).  Null when
  /// some replica of the group runs in another address space, where no
  /// board reaches its coordinator.
  PulseBoard* pulses = nullptr;
};

class RoundDriver {
 public:
  explicit RoundDriver(DriverContext ctx);

  /// Thread body.  Never throws; failures are captured in error().
  void run() noexcept;

  ProcessLog& log() { return log_; }
  std::exception_ptr error() const { return error_; }
  std::unique_ptr<RoundAlgorithm> take_algorithm() {
    return std::move(algorithm_);
  }

 private:
  using Clock = std::chrono::steady_clock;

  void run_impl();
  void collect_scripted(Round k);
  void collect_live(Round k);
  void adopt_future(Round k);
  void route(NetEnvelope env, Round k);
  void finish_round(Round k);
  bool is_done() const;

  DriverContext ctx_;
  std::unique_ptr<RoundAlgorithm> algorithm_;
  std::unique_ptr<RoundSynchronizer> synchronizer_;
  ProcessLog log_;
  std::exception_ptr error_;

  Delivery batch_;              ///< envelopes delivered in the current round
  int in_round_count_ = 0;      ///< batch_ members with send_round == k
  int delayed_count_ = 0;       ///< batch_ members with send_round < k
  std::map<Round, Delivery> future_;  ///< early arrivals, keyed by round
  /// Every (send_round, sender, emitter) triple ever accepted: the reliable
  /// channels resend across socket resets, and a duplicate copy must not
  /// count a second time toward the n − t quorum gate (or reach the
  /// algorithm — the validator calls a double delivery a violation).  The
  /// emitter is part of the key so a FORGED copy claiming an honest sender
  /// (sim/byzantine.hpp) still reaches the algorithm alongside the honest
  /// original — that collision is the attack under test.
  std::set<std::tuple<Round, ProcessId, ProcessId>> seen_copies_;
  bool decided_ = false;
  bool halted_ = false;
  bool reported_done_ = false;
};

}  // namespace indulgence
