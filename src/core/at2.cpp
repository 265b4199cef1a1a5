#include "core/at2.hpp"

#include <algorithm>
#include <stdexcept>

namespace indulgence {

At2::At2(ProcessId self, const SystemConfig& config,
         AlgorithmFactory underlying_factory, At2Options options)
    : ConsensusBase(self, config),
      underlying_factory_(std::move(underlying_factory)),
      options_(options) {
  if (!config.majority_correct()) {
    throw std::invalid_argument("A_{t+2} requires t < n/2 (indulgence)");
  }
  if (!underlying_factory_) {
    throw std::invalid_argument("A_{t+2} needs an underlying consensus C");
  }
}

Round At2::phase1_end() const {
  return options_.phase1_rounds > 0 ? options_.phase1_rounds : t() + 1;
}

std::string At2::name() const {
  std::string base = phase1_end() == t() + 1
                         ? "A_{t+2}"
                         : "A_{t+2}[phase1=" + std::to_string(phase1_end()) +
                               "]";
  if (options_.failure_free_opt) base += "+ff";
  if (options_.ablate_halt_exchange) base += "-haltxchg";
  if (options_.ablate_false_suspicion_check) base += "-fscheck";
  if (options_.ablate_halt_filter) base += "-haltfilter";
  return base;
}

MessagePtr At2::message_for_round(Round k) {
  if (announce_pending_) {
    return std::make_shared<DecideMessage>(*decision());
  }
  if (k <= phase1_end()) {
    return std::make_shared<At2EstimateMessage>(est_, halt_);
  }
  if (k == new_estimate_round()) {
    // Fig. 2 lines 9-10: nE := BOTTOM iff a false suspicion was detected
    // (|Halt| > t), else the final Phase-1 estimate.
    const bool detected =
        !options_.ablate_false_suspicion_check && halt_.size() > t();
    new_estimate_ = detected ? kBottom : est_;
    return std::make_shared<At2NewEstimateMessage>(*new_estimate_);
  }
  // Rounds t+3, t+4, ...: the underlying module C (inner rounds 1, 2, ...).
  if (!underlying_) {
    underlying_ = underlying_factory_(self(), config());
    underlying_->propose(vc_);
  }
  MessagePtr inner = underlying_->message_for_round(k - new_estimate_round());
  if (!inner) {
    throw std::logic_error("A_{t+2}: underlying C produced a null message");
  }
  return std::make_shared<At2UnderlyingMessage>(std::move(inner));
}

void At2::on_round(Round k, const Delivery& delivered) {
  if (announce_pending_) {
    // The DECIDE broadcast went out in this round's send phase; return from
    // propose(*) — the kernel keeps answering with HaltedMessage dummies.
    announce_pending_ = false;
    halt();
    return;
  }

  // A DECIDE notice (explicit DECIDE or a halted process' dummy) is always
  // safe to adopt: the carried value is someone's final decision.
  if (!has_decided()) {
    if (auto d = find_decide_notice(delivered)) {
      decide(*d);
      schedule_decide_announcement();
      return;
    }
  }

  if (k <= phase1_end()) {
    if (options_.failure_free_opt && k == 2 && try_failure_free_decide(delivered)) {
      return;
    }
    compute(k, delivered);
    return;
  }
  if (k == new_estimate_round()) {
    on_new_estimate_round(delivered);
    return;
  }
  run_underlying(k, delivered);
}

// Fig. 4: "if p_i receives round 2 messages from each of the n processes
// with Halt = {} then p_i decides immediately on any est value received";
// else if every round-2 message received has Halt = {}, p_i sets vc to any
// est value received (all such ests are equal when anyone decides, because
// a complete round-1 exchange makes every round-2 est the global minimum).
bool At2::try_failure_free_decide(const Delivery& delivered) {
  int round2_messages = 0;
  bool all_halt_empty = true;
  std::optional<Value> min_est;
  for (const Envelope& env : delivered) {
    if (env.send_round != 2) continue;
    if (const auto* m = env.as<At2EstimateMessage>()) {
      ++round2_messages;
      if (!m->halt().empty()) all_halt_empty = false;
      min_est = min_est ? std::min(*min_est, m->est()) : m->est();
    }
  }
  if (!all_halt_empty || !min_est) return false;
  if (round2_messages == n()) {
    decide(*min_est);
    schedule_decide_announcement();
    return true;
  }
  vc_ = *min_est;
  return false;
}

ProcessSet At2::suspects_for_round(Round, const ProcessSet& heard) {
  ProcessSet suspected = ProcessSet::all(n()) - heard;
  suspected.erase(self());  // a process never suspects itself
  return suspected;
}

// Fig. 2, procedure compute(), lines 30-35.
void At2::compute(Round k, const Delivery& delivered) {
  // Line 33 (first half): suspect every process whose round-k message did
  // not arrive in round k (or, in A_<>S, whomever the detector suspects).
  ProcessSet heard;
  for (const Envelope& env : delivered) {
    if (env.send_round == k && env.as<At2EstimateMessage>() != nullptr) {
      heard.insert(env.sender);
    }
  }
  halt_ |= suspects_for_round(k, heard);

  // Line 33 (second half): p_j suspected us in an earlier round — we are in
  // the Halt set p_j sent with its round-k ESTIMATE.
  if (!options_.ablate_halt_exchange) {
    for (const Envelope& env : delivered) {
      if (env.send_round != k) continue;
      if (const auto* m = env.as<At2EstimateMessage>()) {
        if (m->halt().contains(self())) halt_.insert(env.sender);
      }
    }
  }

  // Lines 34-35: restrict to senders outside Halt, take the minimum est.
  // Self-delivery plus "never suspect yourself" keep our own message in
  // msgSet, so est never increases (Observation O2).
  Value min_est = est_;
  bool any = false;
  for (const Envelope& env : delivered) {
    if (env.send_round != k) continue;
    if (!options_.ablate_halt_filter && halt_.contains(env.sender)) continue;
    if (const auto* m = env.as<At2EstimateMessage>()) {
      min_est = any ? std::min(min_est, m->est()) : m->est();
      any = true;
    }
  }
  if (any) est_ = min_est;
}

void At2::on_new_estimate_round(const Delivery& delivered) {
  // Fig. 2 lines 15-21: look at the round-(t+2) NEWESTIMATE messages.
  bool saw_bottom = false;
  std::optional<Value> non_bottom;
  for (const Envelope& env : delivered) {
    if (env.send_round != new_estimate_round()) continue;
    if (const auto* m = env.as<At2NewEstimateMessage>()) {
      if (m->is_bottom()) {
        saw_bottom = true;
      } else {
        non_bottom = m->new_estimate();
      }
    }
  }
  if (!saw_bottom && non_bottom) {
    // Only non-BOTTOM values: decide one (Lemma 6 makes them all equal).
    decide(*non_bottom);
    schedule_decide_announcement();
    return;
  }
  // Otherwise C's proposal is any non-BOTTOM nE received, else our proposal.
  if (non_bottom) vc_ = *non_bottom;
}

void At2::run_underlying(Round k, const Delivery& delivered) {
  if (!underlying_) {
    throw std::logic_error("A_{t+2}: receive before send in underlying round");
  }
  const Round inner_round = k - new_estimate_round();
  Delivery inner;
  inner.reserve(delivered.size());
  for (const Envelope& env : delivered) {
    if (const auto* wrapped = env.as<At2UnderlyingMessage>()) {
      const Round inner_send = env.send_round - new_estimate_round();
      if (inner_send >= 1) {
        inner.push_back(Envelope{env.sender, inner_send, wrapped->inner()});
      }
    }
  }
  underlying_->on_round(inner_round, inner);
  if (auto d = underlying_->decision()) {
    decide(*d);
    schedule_decide_announcement();
  }
}

AlgorithmFactory at2_factory(AlgorithmFactory underlying_factory,
                             At2Options options) {
  return [underlying_factory = std::move(underlying_factory), options](
             ProcessId self,
             const SystemConfig& config) -> std::unique_ptr<RoundAlgorithm> {
    return std::make_unique<At2>(self, config, underlying_factory, options);
  };
}

AlgorithmFactory at2_truncated_factory(AlgorithmFactory underlying_factory) {
  return [underlying_factory = std::move(underlying_factory)](
             ProcessId self,
             const SystemConfig& config) -> std::unique_ptr<RoundAlgorithm> {
    return std::make_unique<At2>(self, config, underlying_factory,
                                 At2Options{.phase1_rounds = config.t});
  };
}

}  // namespace indulgence
