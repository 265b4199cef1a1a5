#include "consensus/consensus.hpp"

namespace indulgence {

std::optional<Value> decide_notice_value(const Message& message) {
  if (const auto* d = message_as<DecideMessage>(&message)) return d->value();
  if (const auto* h = message_as<HaltedMessage>(&message)) return h->decision();
  return std::nullopt;
}

std::optional<Value> find_decide_notice(const Delivery& delivery) {
  for (const Envelope& env : delivery) {
    if (env.payload == nullptr) continue;
    if (auto v = decide_notice_value(*env.payload)) return v;
  }
  return std::nullopt;
}

}  // namespace indulgence
