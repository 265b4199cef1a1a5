#include "rsm/rsm.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace indulgence {

std::string RsmBundleMessage::describe() const {
  std::ostringstream os;
  os << "RSM{";
  bool first = true;
  for (const auto& [slot, part] : parts_) {
    if (!first) os << ", ";
    os << "s" << slot << ":" << part->describe();
    first = false;
  }
  os << "}";
  return os.str();
}

RsmReplica::RsmReplica(ProcessId self, const SystemConfig& config,
                       AlgorithmFactory slot_factory,
                       std::vector<Value> commands, RsmOptions options)
    : slot_factory_(std::move(slot_factory)),
      queue_(commands.begin(), commands.end()),
      options_(options),
      self_(self),
      config_(config) {
  config_.validate();
  if (options_.num_slots < 1) {
    throw std::invalid_argument("RsmReplica: need at least one slot");
  }
  if (options_.slot_burst < 1) {
    throw std::invalid_argument("RsmReplica: slot_burst must be >= 1");
  }
  if (options_.decide_retention < 0) {
    throw std::invalid_argument("RsmReplica: decide_retention must be >= 0");
  }
  window_ = options_.slot_window > 0 ? options_.slot_window : config.t + 3;
  burst_ = options_.slot_burst;
  slots_.resize(options_.num_slots);
  proposed_.resize(options_.num_slots);
  log_.resize(options_.num_slots);
  commit_rounds_.assign(options_.num_slots, 0);
  for (Value v : queue_) {
    if (v == kBottom || v == kNoOpCommand) {
      throw std::invalid_argument("RsmReplica: reserved command value");
    }
  }
}

void RsmReplica::propose(Value v) {
  if (v == kNoOpCommand) return;  // reserved; kernel proposals may skip it
  queue_.push_front(v);
}

int RsmReplica::last_started_slot(Round k) const {
  // Window step i (rounds i*window+1 .. (i+1)*window) has bursts
  // 0..i open, i.e. slots [0, (i+1)*burst).
  const int step = static_cast<int>((k - 1) / window_);
  const int by_round = (step + 1) * burst_ - 1;
  return std::min(by_round, options_.num_slots - 1);
}

Value RsmReplica::next_command() {
  if (!source_) {
    // Fixed-queue mode: scan without consuming — a command stays pooled
    // until committed, so losing a slot needs no re-insertion.
    for (Value v : queue_) {
      if (!committed_values_.count(v) && !inflight_.count(v)) return v;
    }
    return kNoOpCommand;
  }
  // Ingest mode: the local queue holds retries (slot losers) and kernel
  // proposals; it is consumed front-first, then the source is pulled.
  while (!queue_.empty()) {
    const Value v = queue_.front();
    queue_.pop_front();
    if (committed_values_.count(v) || inflight_.count(v)) continue;
    return v;
  }
  while (auto v = source_()) {
    if (*v == kBottom || *v == kNoOpCommand) continue;  // reserved
    if (committed_values_.count(*v) || inflight_.count(*v)) continue;
    return *v;
  }
  return kNoOpCommand;
}

void RsmReplica::ensure_started(Round k, const Delivery* delivered) {
  const int last = last_started_slot(k);
  if (last < started_hwm_) return;
  // Hand out commands in placement order, burst by burst (started_hwm_ is
  // always a burst boundary): first the slots this replica owns, then the
  // rest of the burst from the far end.
  const int n = config_.n;
  const auto place = [&](int slot) {
    if (delivered && find_decide_notice(slot_delivery(slot, *delivered))) {
      return;  // settled: its instance would never run
    }
    const Value cmd = next_command();
    proposed_[slot] = cmd;
    if (cmd != kNoOpCommand) inflight_.insert(cmd);
  };
  for (int lo = started_hwm_; lo <= last; lo += burst_) {
    const int hi = std::min(lo + burst_ - 1, last);
    for (int slot = lo + (self_ - lo % n + n) % n; slot <= hi; slot += n) {
      place(slot);
    }
    for (int slot = hi; slot >= lo; --slot) {
      if (slot % n != self_) place(slot);
    }
  }
  // Instantiate in ascending order: every new slot lies above every open
  // one, so open_ stays sorted.
  for (int slot = started_hwm_; slot <= last; ++slot) {
    if (!proposed_[slot]) continue;
    slots_[slot] = slot_factory_(self_, config_);
    // Consensus proposals must be comparable and non-reserved; no-ops are
    // encoded as a large sentinel that any proposal set tolerates.
    slots_[slot]->propose(*proposed_[slot] == kNoOpCommand
                              ? std::numeric_limits<Value>::max() - self_
                              : *proposed_[slot]);
    open_.push_back(slot);
  }
  started_hwm_ = last + 1;
}

Delivery RsmReplica::slot_delivery(int slot, const Delivery& delivered) const {
  Delivery inner;
  for (const Envelope& env : delivered) {
    const auto* bundle = env.as<RsmBundleMessage>();
    if (!bundle) continue;
    const MessagePtr* part = bundle->part(slot);
    if (!part) continue;
    const Round inner_send = env.send_round - slot_start(slot) + 1;
    if (inner_send >= 1) {
      inner.push_back(Envelope{env.sender, inner_send, *part});
    }
  }
  return inner;
}

void RsmReplica::record_commit(int slot, Value v, Round round) {
  if (log_[slot]) return;
  log_[slot] = v;
  commit_rounds_[slot] = round;
  committed_values_.insert(v);
  ++committed_count_;
  if (proposed_[slot] && *proposed_[slot] != kNoOpCommand) {
    // Either way the command is no longer riding this slot; if ours lost,
    // it returns to the pool (ingest mode re-queues it explicitly — the
    // fixed queue never consumed it in the first place).
    inflight_.erase(*proposed_[slot]);
    if (source_ && *proposed_[slot] != v) queue_.push_front(*proposed_[slot]);
  }
  retained_.push_back(Retained{
      slot, options_.decide_retention > 0 ? round + options_.decide_retention
                                          : 0});
  while (prefix_ < options_.num_slots && log_[prefix_]) ++prefix_;
  // The slot's consensus instance is settled; free it so a long log does
  // not hold every instance alive.
  slots_[slot].reset();
  const auto it = std::find(open_.begin(), open_.end(), slot);
  if (it != open_.end()) open_.erase(it);
  if (commit_callback_) commit_callback_(slot, v, round);
}

MessagePtr RsmReplica::message_for_round(Round k) {
  ensure_started(k);
  while (!retained_.empty() && retained_.front().until != 0 &&
         k > retained_.front().until) {
    retained_.pop_front();
  }
  std::map<int, MessagePtr> parts;
  for (const Retained& r : retained_) {
    // Keep broadcasting the outcome so every replica catches up.
    parts[r.slot] = std::make_shared<DecideMessage>(*log_[r.slot]);
  }
  for (int slot : open_) {
    if (slots_[slot]->halted()) {
      parts[slot] = std::make_shared<DecideMessage>(*slots_[slot]->decision());
      continue;
    }
    parts[slot] = slots_[slot]->message_for_round(k - slot_start(slot) + 1);
  }
  return std::make_shared<RsmBundleMessage>(std::move(parts));
}

void RsmReplica::on_round(Round k, const Delivery& delivered) {
  // This round's working set: the open slots plus any slot the send phase
  // has not opened yet (possible when a crash swallowed the send), which
  // starts here unless a DECIDE notice already settles it — ascending,
  // since open slots all precede started_hwm_.
  const int first_new = started_hwm_;
  round_slots_.assign(open_.begin(), open_.end());
  ensure_started(k, &delivered);
  for (int slot = first_new; slot < started_hwm_; ++slot) {
    round_slots_.push_back(slot);
  }

  for (int slot : round_slots_) {
    if (log_[slot]) continue;  // already committed here
    const Round inner_round = k - slot_start(slot) + 1;
    if (inner_round < 1) continue;
    const Delivery inner = slot_delivery(slot, delivered);

    // A DECIDE notice settles the slot even if our instance lags.
    if (auto d = find_decide_notice(inner)) {
      record_commit(slot, *d, k);
      continue;
    }
    if (slots_[slot]->halted()) continue;
    slots_[slot]->on_round(inner_round, inner);
    if (auto d = slots_[slot]->decision()) record_commit(slot, *d, k);
  }
}

AlgorithmFactory rsm_factory(
    AlgorithmFactory slot_factory,
    std::function<std::vector<Value>(ProcessId)> commands_for,
    RsmOptions options) {
  return [slot_factory = std::move(slot_factory),
          commands_for = std::move(commands_for),
          options](ProcessId self, const SystemConfig& config)
             -> std::unique_ptr<RoundAlgorithm> {
    return std::make_unique<RsmReplica>(self, config, slot_factory,
                                        commands_for(self), options);
  };
}

AlgorithmFactory rsm_ingest_factory(
    AlgorithmFactory slot_factory,
    std::function<RsmCommandSource(ProcessId)> source_for,
    std::function<RsmCommitCallback(ProcessId)> commit_for,
    RsmOptions options) {
  return [slot_factory = std::move(slot_factory),
          source_for = std::move(source_for),
          commit_for = std::move(commit_for),
          options](ProcessId self, const SystemConfig& config)
             -> std::unique_ptr<RoundAlgorithm> {
    auto replica = std::make_unique<RsmReplica>(
        self, config, slot_factory, std::vector<Value>{}, options);
    replica->set_command_source(source_for(self));
    replica->set_commit_callback(commit_for(self));
    return replica;
  };
}

std::function<AlgorithmFactory(GroupId)> sharded_rsm_factory(
    AlgorithmFactory slot_factory,
    std::function<std::vector<Value>(GroupId, ProcessId)> commands_for,
    RsmOptions options) {
  return [slot_factory = std::move(slot_factory),
          commands_for = std::move(commands_for), options](GroupId group) {
    return rsm_factory(
        slot_factory,
        [commands_for, group](ProcessId pid) {
          return commands_for(group, pid);
        },
        options);
  };
}

std::function<AlgorithmFactory(GroupId)> sharded_rsm_ingest_factory(
    AlgorithmFactory slot_factory,
    std::function<RsmCommandSource(GroupId, ProcessId)> source_for,
    std::function<RsmCommitCallback(GroupId, ProcessId)> commit_for,
    RsmOptions options) {
  return [slot_factory = std::move(slot_factory),
          source_for = std::move(source_for),
          commit_for = std::move(commit_for), options](GroupId group) {
    return rsm_ingest_factory(
        slot_factory,
        [source_for, group](ProcessId pid) { return source_for(group, pid); },
        [commit_for, group](ProcessId pid) { return commit_for(group, pid); },
        options);
  };
}

}  // namespace indulgence
