// Shared scaffolding for consensus algorithm implementations.
//
// Every algorithm in this repository is a RoundAlgorithm (sim/process.hpp);
// ConsensusBase factors the bookkeeping they all share — identity, config,
// proposal, the decide/halt life cycle — and adds the DECIDE-message
// convention: once a process has halted, the kernel sends HaltedMessage
// dummies on its behalf, and live processes adopt the decision carried by
// any HaltedMessage or algorithm-level DECIDE payload they receive.

#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "sim/process.hpp"

namespace indulgence {

class ConsensusBase : public RoundAlgorithm {
 public:
  ConsensusBase(ProcessId self, const SystemConfig& config)
      : self_(self), config_(config) {
    config_.validate();
    if (self < 0 || self >= config.n) {
      throw std::invalid_argument("ConsensusBase: bad process id");
    }
  }

  void propose(Value v) override {
    if (v == kBottom) {
      throw std::invalid_argument(name() + ": kBottom is not proposable");
    }
    if (proposal_) throw std::logic_error(name() + ": propose called twice");
    proposal_ = v;
    on_propose(v);
  }

  std::optional<Value> decision() const final { return decision_; }
  bool halted() const final { return halted_; }

 protected:
  /// Hook for subclasses to initialize their estimate from the proposal.
  virtual void on_propose(Value) {}

  ProcessId self() const { return self_; }
  const SystemConfig& config() const { return config_; }
  int n() const { return config_.n; }
  int t() const { return config_.t; }

  Value proposal() const {
    if (!proposal_) throw std::logic_error(name() + ": no proposal yet");
    return *proposal_;
  }

  bool has_decided() const { return decision_.has_value(); }

  /// Records the decision (idempotent for the same value; a second,
  /// different decision is a bug and throws).
  void decide(Value v) {
    if (decision_ && *decision_ != v) {
      throw std::logic_error(name() + ": decided twice with different values");
    }
    decision_ = v;
  }

  /// Returns from propose(*): the kernel takes over with dummies.
  void halt() {
    if (!decision_) throw std::logic_error(name() + ": halt before decision");
    halted_ = true;
  }

 private:
  ProcessId self_;
  SystemConfig config_;
  std::optional<Value> proposal_;
  std::optional<Value> decision_;
  bool halted_ = false;
};

/// Factory helper: make_algorithm_factory<FloodSet>() etc.  Extra arguments
/// are copied into every instance (after self and config).
template <typename T, typename... Args>
AlgorithmFactory make_algorithm_factory(Args... args) {
  return [=](ProcessId self, const SystemConfig& config)
             -> std::unique_ptr<RoundAlgorithm> {
    return std::make_unique<T>(self, config, args...);
  };
}

/// A DECIDE broadcast shared by several algorithms: carries a decided value.
class DecideMessage final : public Message {
 public:
  explicit DecideMessage(Value v) : value_(v) {}
  Value value() const { return value_; }
  std::string describe() const override {
    return "DECIDE(" + std::to_string(value_) + ")";
  }

  MessagePtr mutated(Value v) const override {
    return std::make_shared<DecideMessage>(v);
  }

 private:
  Value value_;
};

/// The value one payload carries as a decision notice (a DecideMessage or
/// the kernel's HaltedMessage dummy), or nullopt for any other payload.
std::optional<Value> decide_notice_value(const Message& message);

/// Scans a delivery for the first decision notice and returns its value.
std::optional<Value> find_decide_notice(const Delivery& delivery);

/// Footnote-1 dummy: sent when an algorithm has nothing to say in a round
/// (e.g. non-coordinators in a coordinator round).
class FillerMessage final : public Message {
 public:
  std::string describe() const override { return "FILLER"; }
};

}  // namespace indulgence
