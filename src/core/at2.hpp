// A_{t+2} — the paper's matching consensus algorithm (Fig. 2), the core
// contribution this repository reproduces.
//
// Structure (Sect. 3):
//
//   Phase 1 (rounds 1 .. t+1): flood (ESTIMATE, k, est, Halt).  est is the
//   minimum estimate seen from non-Halt senders; Halt accumulates every
//   process p_j that this process suspected (no round-k message in round k)
//   or that suspected this process (self in the Halt set p_j sent).
//
//   Phase 2 (round t+2): a process detects a false suspicion iff
//   |Halt| > t; its new estimate nE is then BOTTOM, otherwise est.  After
//   exchanging (NEWESTIMATE, nE): if every nE received is non-BOTTOM the
//   process decides on one (the elimination property, Lemma 6, guarantees
//   they are all equal); otherwise it adopts any non-BOTTOM nE received as
//   the proposal vc for the underlying consensus module C and, from round
//   t+3 on, runs C.
//
//   A process that decided broadcasts DECIDE in the next round and returns;
//   any process that receives a DECIDE notice adopts the decision.
//
// Guarantees (reproduced by tests/benches):
//   * consensus (validity, uniform agreement, termination) in ES, t < n/2,
//     for ANY correct underlying C (Lemmas 12 and ff.);
//   * fast decision: global decision at round t+2 in EVERY synchronous run,
//     regardless of C (Lemma 13);
//   * with the failure-free optimization of Fig. 4 (enable_failure_free_opt),
//     global decision at round 2 in every failure-free synchronous run,
//     matching the 2-round lower bound of [11].
//
// The phase1_rounds knob exists for the lower-bound experiments: setting it
// to t (one round short) yields the "A_{t+1}" strawman that decides at
// round t+1 in synchronous runs — and, per Proposition 1, must violate
// agreement in some ES run, which lb/attack.cpp exhibits.

#pragma once

#include <optional>

#include "consensus/consensus.hpp"

namespace indulgence {

/// Phase-1 payload: (ESTIMATE, k, est, Halt).
class At2EstimateMessage final : public Message {
 public:
  At2EstimateMessage(Value est, ProcessSet halt) : est_(est), halt_(halt) {}

  Value est() const { return est_; }
  const ProcessSet& halt() const { return halt_; }

  std::string describe() const override {
    return "ESTIMATE(est=" + std::to_string(est_) + ", halt=" +
           halt_.to_string() + ")";
  }

  /// Only the estimate is lie-mutable; the halt set rides along unchanged.
  MessagePtr mutated(Value v) const override {
    return std::make_shared<At2EstimateMessage>(v, halt_);
  }

 private:
  Value est_;
  ProcessSet halt_;
};

/// Phase-2 payload: (NEWESTIMATE, nE); nE == kBottom encodes BOTTOM.
class At2NewEstimateMessage final : public Message {
 public:
  explicit At2NewEstimateMessage(Value new_estimate) : ne_(new_estimate) {}

  Value new_estimate() const { return ne_; }
  bool is_bottom() const { return ne_ == kBottom; }

  std::string describe() const override {
    return "NEWESTIMATE(" + (is_bottom() ? "BOTTOM" : std::to_string(ne_)) +
           ")";
  }

  MessagePtr mutated(Value v) const override {
    return std::make_shared<At2NewEstimateMessage>(v);
  }

 private:
  Value ne_;
};

/// Wrapper around the underlying consensus module C's round messages.
class At2UnderlyingMessage final : public Message {
 public:
  explicit At2UnderlyingMessage(MessagePtr inner) : inner_(std::move(inner)) {}

  const MessagePtr& inner() const { return inner_; }

  std::string describe() const override {
    return "C[" + inner_->describe() + "]";
  }

  /// Lies reach through to the wrapped module's payload.
  MessagePtr mutated(Value v) const override {
    MessagePtr inner = inner_->mutated(v);
    if (!inner) return nullptr;
    return std::make_shared<At2UnderlyingMessage>(std::move(inner));
  }

 private:
  MessagePtr inner_;
};

struct At2Options {
  /// Fig. 4: decide at round 2 when round 1 was a complete, suspicion-free
  /// exchange.
  bool failure_free_opt = false;

  /// Length of Phase 1; 0 means the canonical t + 1.  The lower-bound
  /// experiments set t to build the impossible "A_{t+1}".
  Round phase1_rounds = 0;

  // --- ablations (for the mechanism-necessity experiments) --------------
  // Each flag removes one load-bearing piece of Fig. 2; the ablation tests
  // and bench show which consensus property it was carrying.

  /// Drop the second clause of line 33: ignore "p_j suspected me" reports,
  /// i.e. no exchange of Halt sets (suspicion stays local knowledge).
  bool ablate_halt_exchange = false;

  /// Drop line 10's false-suspicion detection: nE is never BOTTOM, the
  /// Phase-1 estimate is always announced.
  bool ablate_false_suspicion_check = false;

  /// Drop line 34's filter: compute the Phase-1 minimum over ALL received
  /// current-round estimates, Halt members included.
  bool ablate_halt_filter = false;
};

class At2 : public ConsensusBase {
 public:
  /// `underlying_factory` builds the consensus module C (paper: any <>P- or
  /// <>S-based round algorithm transposed to ES).
  At2(ProcessId self, const SystemConfig& config,
      AlgorithmFactory underlying_factory, At2Options options = {});

  MessagePtr message_for_round(Round k) override;
  void on_round(Round k, const Delivery& delivered) override;

  std::string name() const override;

  // --- introspection for tests ------------------------------------------

  const ProcessSet& halt_set() const { return halt_; }
  Value estimate() const { return est_; }

  /// nE as computed at the beginning of round t+2 (nullopt before then).
  std::optional<Value> new_estimate() const { return new_estimate_; }

  /// True iff this process detected a false suspicion (|Halt| > t).
  bool detected_false_suspicion() const {
    return new_estimate_ && *new_estimate_ == kBottom;
  }

  /// True iff the process fell through to the underlying module C.
  bool used_underlying() const { return underlying_ != nullptr; }

 protected:
  void on_propose(Value v) override {
    est_ = v;
    vc_ = v;
  }

  /// Suspicion source for round k of Phase 1 (Fig. 2 line 33, first
  /// clause).  Base: the ES rule — suspect exactly the processes whose
  /// round-k message did not arrive in round k.  A_<>S (Fig. 3) overrides
  /// this to consult its failure-detector module instead.
  virtual ProcessSet suspects_for_round(Round k, const ProcessSet& heard);

 private:
  Round phase1_end() const;       ///< t+1 (or the truncated override)
  Round new_estimate_round() const { return phase1_end() + 1; }  ///< t+2

  void compute(Round k, const Delivery& delivered);   // Fig. 2 lines 30-35

  /// Fig. 4, inserted before compute() in round 2: decides when round 1 was
  /// a complete suspicion-free exchange; otherwise may pre-seed vc.  Returns
  /// true iff the process decided (normal round-2 processing is skipped).
  bool try_failure_free_decide(const Delivery& delivered);
  void on_new_estimate_round(const Delivery& delivered);
  void run_underlying(Round k, const Delivery& delivered);
  void schedule_decide_announcement() { announce_pending_ = true; }

  AlgorithmFactory underlying_factory_;
  At2Options options_;

  Value est_ = 0;            ///< minimum estimate seen (Fig. 2: est_i)
  ProcessSet halt_;          ///< Fig. 2: Halt_i
  Value vc_ = 0;             ///< proposal for the underlying module C
  std::optional<Value> new_estimate_;  ///< Fig. 2: nE_i, set at round t+2

  std::unique_ptr<RoundAlgorithm> underlying_;  ///< C, live from round t+3
  bool announce_pending_ = false;  ///< decided: broadcast DECIDE next round
};

/// Canonical factory: A_{t+2} with the given underlying module.
AlgorithmFactory at2_factory(AlgorithmFactory underlying_factory,
                             At2Options options = {});

/// The impossible "A_{t+1}": A_{t+2} with Phase 1 cut to t rounds, so it
/// decides at t + 1 in synchronous runs, a round before the R1 lower bound,
/// and an ES run breaks its agreement (Proposition 1).
AlgorithmFactory at2_truncated_factory(AlgorithmFactory underlying_factory);

}  // namespace indulgence
