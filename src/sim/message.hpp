// Message payloads and envelopes for the round-based simulator.
//
// Algorithms define their own payload types derived from Message; the
// kernel transports them opaquely as shared immutable values (a delivered
// payload may be referenced by many receivers' envelopes, so payloads are
// const after construction).
//
// Per footnote 1 of the paper, a process is supposed to send a message to
// all processes in every round; when an algorithm instance has returned
// (halted), the kernel substitutes a HaltedMessage carrying the process'
// decision, which algorithms treat as a DECIDE message.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "common/types.hpp"

namespace indulgence {

/// Base class for all algorithm message payloads.
class Message {
 public:
  virtual ~Message() = default;

  /// Human-readable rendering for traces and test failure output.
  virtual std::string describe() const = 0;

  /// Byzantine mutation surface (sim/byzantine.hpp): a copy of this payload
  /// with its primary value field replaced by `v`, or nullptr when the type
  /// has no lie-mutable field.  Only the plain value may change — signer
  /// ids, round stamps, certificates, and set-valued evidence are out of
  /// the injection layer's reach (they model signed content).
  virtual std::shared_ptr<const Message> mutated(Value v) const {
    (void)v;
    return nullptr;
  }
};

using MessagePtr = std::shared_ptr<const Message>;

/// `message` as a T, or nullptr when it is null or not a T.  Every payload
/// type is final, so "is a T" means "is exactly a T": one type_info compare
/// where a dynamic_cast would walk the class hierarchy.
template <typename T>
const T* message_as(const Message* message) {
  static_assert(std::is_final_v<T>, "payload types are final");
  if (message == nullptr || typeid(*message) != typeid(T)) return nullptr;
  return static_cast<const T*>(message);
}

/// Kernel-substituted dummy sent on behalf of a halted (returned) process.
/// Carries the decision the process halted with, so it doubles as a DECIDE.
class HaltedMessage final : public Message {
 public:
  explicit HaltedMessage(Value decision) : decision_(decision) {}

  Value decision() const { return decision_; }

  std::string describe() const override {
    return "HALTED(decided=" + std::to_string(decision_) + ")";
  }

  MessagePtr mutated(Value v) const override {
    return std::make_shared<HaltedMessage>(v);
  }

 private:
  Value decision_;
};

/// A payload in flight or delivered: who sent it and in which round.
/// `origin` is the process that ACTUALLY emitted the copy: -1 (the default)
/// means origin == sender; a Byzantine forger sets sender to its victim and
/// origin to itself, so traces stay attributable to the real liar.
struct Envelope {
  ProcessId sender = -1;
  Round send_round = 0;
  MessagePtr payload;
  ProcessId origin = -1;

  /// The emitting process (the liar for forged copies).
  ProcessId emitter() const { return origin < 0 ? sender : origin; }

  /// Downcast helper: nullptr when the payload is not a T.
  template <typename T>
  const T* as() const {
    return message_as<T>(payload.get());
  }
};

/// The set of envelopes a process receives in one round's receive phase.
using Delivery = std::vector<Envelope>;

/// Returns the senders of the *current-round* messages in a delivery, i.e.
/// the processes NOT suspected this round (paper Sect. 1.2: p_i suspects p_j
/// in round k iff p_i does not receive p_j's round-k message in round k).
std::vector<ProcessId> current_round_senders(const Delivery& delivery,
                                             Round round);

}  // namespace indulgence
