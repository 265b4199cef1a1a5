// Run traces: the complete observable history of one simulated run, plus
// the consensus-level queries (agreement, validity, global decision round)
// used throughout tests, benchmarks, and the lower-bound explorer.
//
// Traces deliberately record raw events — crashes, deliveries, decisions,
// halts, pending (still-delayed) messages — so that the model validator can
// re-check every ES/SCS constraint independently of the kernel that
// produced the trace.

#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "sim/message.hpp"

namespace indulgence {

struct CrashRecord {
  Round round = 0;
  ProcessId pid = -1;
  bool before_send = false;
};

struct DeliveryRecord {
  Round recv_round = 0;
  ProcessId receiver = -1;
  ProcessId sender = -1;
  Round send_round = 0;
  MessagePtr payload;  ///< may be null in synthetic traces built by tests
  /// Actual emitter of the copy; -1 means origin == sender.  A forged copy
  /// carries the victim in `sender` and the liar here (sim/byzantine.hpp).
  ProcessId origin = -1;

  ProcessId emitter() const { return origin < 0 ? sender : origin; }
};

struct SendRecord {
  Round round = 0;
  ProcessId sender = -1;
  bool dummy = false;  ///< kernel-substituted HaltedMessage
};

struct DecisionRecord {
  Round round = 0;
  ProcessId pid = -1;
  Value value = 0;
};

struct PendingRecord {
  ProcessId sender = -1;
  ProcessId receiver = -1;
  Round send_round = 0;
  Round deliver_round = 0;  ///< scheduled arrival (beyond the executed rounds)
};

class RunTrace {
 public:
  RunTrace(SystemConfig config, Model model, Round gst)
      : config_(config), model_(model), gst_(gst) {}

  /// An empty trace awaiting reset(); used by reusable run contexts.
  RunTrace() = default;

  /// Clears all recorded events and rebinds the trace to a new run, keeping
  /// the vectors' capacity.  Sweep workers reset one trace per run instead
  /// of reallocating storage for each of millions of runs.
  void reset(SystemConfig config, Model model, Round gst) {
    config_ = config;
    model_ = model;
    gst_ = gst;
    rounds_executed_ = 0;
    terminated_ = false;
    byzantine_ = ProcessSet{};
    byzantine_budget_ = 0;
    proposals_.clear();
    crashes_.clear();
    sends_.clear();
    deliveries_.clear();
    decisions_.clear();
    pending_.clear();
    halts_.clear();
  }

  // --- recording (kernel-side) ----------------------------------------

  void record_proposal(ProcessId pid, Value v) { proposals_[pid] = v; }
  void record_crash(CrashRecord r) { crashes_.push_back(r); }
  void record_send(SendRecord r) { sends_.push_back(r); }
  void record_delivery(DeliveryRecord r) { deliveries_.push_back(r); }
  void record_decision(DecisionRecord r) { decisions_.push_back(r); }
  void record_halt(ProcessId pid, Round round) { halts_[pid] = round; }
  void record_pending(PendingRecord r) { pending_.push_back(r); }
  void set_rounds_executed(Round k) { rounds_executed_ = k; }
  void set_terminated(bool ok) { terminated_ = ok; }

  /// Declares pid a budgeted liar (sim/byzantine.hpp).  The validator
  /// excuses declared liars from honest-process constraints and checks the
  /// declared set against the budget.
  void record_byzantine(ProcessId pid) { byzantine_.insert(pid); }
  void set_byzantine_budget(int b) { byzantine_budget_ = b; }

  /// Rebinds the eventual-synchrony round after recording.  The live runtime
  /// (src/net) derives a run's GST from the finished trace — the smallest
  /// round from which synchrony held — because a wall-clock GST has no
  /// a-priori round number.
  void set_gst(Round k) { gst_ = k; }

  /// Rebinds the timing model after recording, to judge a finished trace
  /// under another model: a live run is ES by construction, and an SCS
  /// algorithm owes its guarantees only to runs whose trace is also
  /// SCS-valid.
  void set_model(Model m) { model_ = m; }

  // --- raw access -------------------------------------------------------

  const SystemConfig& config() const { return config_; }
  Model model() const { return model_; }
  Round gst() const { return gst_; }
  Round rounds_executed() const { return rounds_executed_; }

  /// True when the kernel stopped because every live process had decided;
  /// false when it hit its round cap first.
  bool terminated() const { return terminated_; }

  const std::vector<CrashRecord>& crashes() const { return crashes_; }
  const std::vector<SendRecord>& sends() const { return sends_; }
  const std::vector<DeliveryRecord>& deliveries() const { return deliveries_; }
  const std::vector<DecisionRecord>& decisions() const { return decisions_; }
  const std::vector<PendingRecord>& pending() const { return pending_; }
  const std::map<ProcessId, Value>& proposals() const { return proposals_; }

  // --- queries ------------------------------------------------------------

  /// Processes that crash anywhere in the trace.
  ProcessSet crashed() const;

  /// Declared liars and their budget (empty / 0 on crash-only runs).
  const ProcessSet& byzantine() const { return byzantine_; }
  int byzantine_budget() const { return byzantine_budget_; }

  /// Processes that neither crash nor lie — the run's correct processes.
  /// Byzantine processes are excluded: the model makes no promises about
  /// them (they need not decide, and their channels need not be reliable).
  ProcessSet correct() const;

  /// Round in which pid crashed, if it did.
  std::optional<Round> crash_round(ProcessId pid) const;

  std::optional<Decision> decision_of(ProcessId pid) const;

  /// True iff every correct process decided.
  bool all_correct_decided() const;

  /// The paper's global decision round (Sect. 1.3): the highest round at
  /// which any process decides, provided at least one process decided and
  /// every correct process decided; nullopt otherwise.
  std::optional<Round> global_decision_round() const;

  /// Uniform agreement: no two processes (correct or not) decide
  /// differently.  Declared liars are exempt — a Byzantine process may
  /// "decide" anything; only honest decisions must agree.
  bool agreement_ok() const;

  /// Validity: every decided value was proposed by some process.  With
  /// declared liars this weakens to WEAK validity (vacuously true): a
  /// consistent lie is indistinguishable from a real proposal, so only the
  /// all-honest case pins decided values to proposals.
  bool validity_ok() const;

  /// Senders of round-`round` messages received by `receiver` during round
  /// `round` itself (i.e. the processes `receiver` does NOT suspect).
  ProcessSet in_round_senders(ProcessId receiver, Round round) const;

  /// Everything `receiver` got in the receive phase of `round`.
  std::vector<DeliveryRecord> delivered_to(ProcessId receiver,
                                           Round round) const;

  /// Round-by-round human-readable rendering (examples, failure messages).
  std::string to_string() const;

 private:
  SystemConfig config_{};
  Model model_ = Model::ES;
  Round gst_ = 1;
  Round rounds_executed_ = 0;
  bool terminated_ = false;
  ProcessSet byzantine_;
  int byzantine_budget_ = 0;

  std::map<ProcessId, Value> proposals_;
  std::vector<CrashRecord> crashes_;
  std::vector<SendRecord> sends_;
  std::vector<DeliveryRecord> deliveries_;
  std::vector<DecisionRecord> decisions_;
  std::vector<PendingRecord> pending_;
  std::map<ProcessId, Round> halts_;
};

}  // namespace indulgence
