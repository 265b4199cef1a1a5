#include "rsm/rsm.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace indulgence {

namespace {

/// The entry of a slot-ascending list that holds `slot`, or nullptr.
template <typename Entry>
const Entry* find_slot(const std::vector<Entry>& entries, int slot) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), slot,
      [](const Entry& entry, int s) { return entry.slot < s; });
  return it != entries.end() && it->slot == slot ? &*it : nullptr;
}

}  // namespace

RsmBundleMessage::RsmBundleMessage(std::vector<Part> running,
                                   std::vector<Notice> notices)
    : running_(std::move(running)), notices_(std::move(notices)) {
  bool ordered = true;
  std::optional<int> previous;
  const auto check = [&](int slot) {
    if (previous && slot <= *previous) ordered = false;
    previous = slot;
  };
  for_each_slot(
      [&](int slot, const MessagePtr& part) {
        check(slot);
        if (part == nullptr) ordered = false;
      },
      [&](int slot, Value) { check(slot); });
  if (!ordered) {
    throw std::invalid_argument(
        "RsmBundleMessage: slots must be strictly ascending, disjoint "
        "across running parts and notices, and every part non-null");
  }
}

const MessagePtr* RsmBundleMessage::part(int slot) const {
  const Part* p = find_slot(running_, slot);
  return p ? &p->message : nullptr;
}

std::optional<Value> RsmBundleMessage::notice(int slot) const {
  const Notice* d = find_slot(notices_, slot);
  return d ? std::optional<Value>(d->value) : std::nullopt;
}

std::string RsmBundleMessage::describe() const {
  std::ostringstream os;
  os << "RSM{";
  bool first = true;
  const auto entry = [&](int slot, const std::string& part) {
    if (!first) os << ", ";
    os << "s" << slot << ":" << part;
    first = false;
  };
  for_each_slot(
      [&](int slot, const MessagePtr& part) { entry(slot, part->describe()); },
      [&](int slot, Value value) {
        entry(slot, DecideMessage(value).describe());
      });
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

void RsmReplica::ensure_started(Round k, bool settle) {
  const int last = last_started_slot(k);
  const int first = started_hwm_;
  if (last < first) return;
  // Hand out commands in placement order, burst by burst (started_hwm_ is
  // always a burst boundary): first the slots this replica owns, then the
  // rest of the burst from the far end.
  const int n = config_.n;
  fresh_.assign(static_cast<std::size_t>(last - first + 1), std::nullopt);
  const auto place = [&](int slot) {
    if (settle && scan_slot(slot, nullptr)) {
      return;  // settled: its instance would never run
    }
    const Value cmd = next_command();
    fresh_[static_cast<std::size_t>(slot - first)] = cmd;
    if (cmd != kNoOpCommand) inflight_.insert(cmd);
  };
  for (int lo = first; lo <= last; lo += burst_) {
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
  for (int slot = first; slot <= last; ++slot) {
    const std::optional<Value>& cmd =
        fresh_[static_cast<std::size_t>(slot - first)];
    if (!cmd) continue;
    OpenSlot open{slot, *cmd, slot_factory_(self_, config_)};
    // Consensus proposals must be comparable and non-reserved; no-ops are
    // encoded as a large sentinel that any proposal set tolerates.
    open.instance->propose(*cmd == kNoOpCommand
                               ? std::numeric_limits<Value>::max() - self_
                               : *cmd);
    open_.push_back(std::move(open));
  }
  started_hwm_ = last + 1;
  log_.resize(static_cast<std::size_t>(started_hwm_));
  commit_rounds_.resize(static_cast<std::size_t>(started_hwm_), 0);
}

std::optional<Value> RsmReplica::scan_slot(int slot, Delivery* inner) const {
  const Round start = slot_start(slot);
  for (const Heard& heard : heard_) {
    if (heard.send_round < start) continue;  // sent before the slot began
    if (auto d = heard.bundle->notice(slot)) return d;
    const MessagePtr* part = heard.bundle->part(slot);
    if (part == nullptr) continue;
    if (auto d = decide_notice_value(**part)) return d;
    if (inner != nullptr) {
      inner->push_back(
          Envelope{heard.sender, heard.send_round - start + 1, *part});
    }
  }
  return std::nullopt;
}

std::vector<RsmReplica::OpenSlot>::iterator RsmReplica::find_open(int slot) {
  const auto it = std::lower_bound(
      open_.begin(), open_.end(), slot,
      [](const OpenSlot& open, int s) { return open.slot < s; });
  return it != open_.end() && it->slot == slot ? it : open_.end();
}

void RsmReplica::record_commit(int slot, Value v, Round round) {
  auto& entry = log_[static_cast<std::size_t>(slot)];
  if (entry) return;
  entry = v;
  commit_rounds_[static_cast<std::size_t>(slot)] = round;
  committed_values_.insert(v);
  const auto open = find_open(slot);
  if (open != open_.end()) {
    if (open->proposal != kNoOpCommand) {
      // Either way the command is no longer riding this slot; if ours
      // lost, it returns to the pool (ingest mode re-queues it explicitly
      // — the fixed queue never consumed it in the first place).
      inflight_.erase(open->proposal);
      if (source_ && open->proposal != v) queue_.push_front(open->proposal);
    }
    // The slot's consensus instance is settled; free it so a long log does
    // not hold every instance alive.
    open_.erase(open);
  }
  const Round until =
      options_.decide_retention > 0 ? round + options_.decide_retention : 0;
  retained_.insert(
      std::upper_bound(retained_.begin(), retained_.end(), slot,
                       [](int s, const Retained& r) { return s < r.slot; }),
      Retained{slot, until});
  while (prefix_ < static_cast<int>(log_.size()) &&
         log_[static_cast<std::size_t>(prefix_)]) {
    ++prefix_;
  }
  if (commit_callback_) commit_callback_(slot, v, round);
}

MessagePtr RsmReplica::message_for_round(Round k) {
  ensure_started(k);
  if (options_.decide_retention > 0) {
    std::erase_if(retained_, [k](const Retained& r) { return k > r.until; });
  }
  // Keep broadcasting outcomes so every replica catches up.
  std::vector<RsmBundleMessage::Notice> notices;
  notices.reserve(retained_.size());
  for (const Retained& r : retained_) {
    notices.push_back({r.slot, *log_[static_cast<std::size_t>(r.slot)]});
  }
  std::vector<RsmBundleMessage::Part> running;
  running.reserve(open_.size());
  for (const OpenSlot& open : open_) {
    if (open.instance->halted()) {
      const RsmBundleMessage::Notice notice{open.slot,
                                            *open.instance->decision()};
      notices.insert(
          std::upper_bound(notices.begin(), notices.end(), open.slot,
                           [](int s, const RsmBundleMessage::Notice& d) {
                             return s < d.slot;
                           }),
          notice);
      continue;
    }
    running.push_back(
        {open.slot,
         open.instance->message_for_round(k - slot_start(open.slot) + 1)});
  }
  return std::make_shared<RsmBundleMessage>(std::move(running),
                                            std::move(notices));
}

void RsmReplica::on_round(Round k, const Delivery& delivered) {
  heard_.clear();
  for (const Envelope& env : delivered) {
    if (const auto* bundle = env.as<RsmBundleMessage>()) {
      heard_.push_back(Heard{env.sender, env.send_round, bundle});
    }
  }
  // This round's working set: the open slots plus any slot the send phase
  // has not opened yet (possible when a crash swallowed the send), which
  // starts here unless a DECIDE notice already settles it — ascending,
  // since open slots all precede started_hwm_.
  const int first_new = started_hwm_;
  round_slots_.clear();
  for (const OpenSlot& open : open_) round_slots_.push_back(open.slot);
  ensure_started(k, /*settle=*/true);
  for (int slot = first_new; slot < started_hwm_; ++slot) {
    round_slots_.push_back(slot);
  }

  for (int slot : round_slots_) {
    if (log_[static_cast<std::size_t>(slot)]) continue;  // committed here
    const Round inner_round = k - slot_start(slot) + 1;
    if (inner_round < 1) continue;
    inner_.clear();
    // A DECIDE notice settles the slot even if our instance lags.
    if (auto d = scan_slot(slot, &inner_)) {
      record_commit(slot, *d, k);
      continue;
    }
    // Every unsettled slot here is open: a new slot skips its start only
    // when this same delivery settles it.
    RoundAlgorithm& instance = *find_open(slot)->instance;
    if (instance.halted()) continue;
    instance.on_round(inner_round, inner_);
    if (auto d = instance.decision()) record_commit(slot, *d, k);
  }
  // Hold no payload past the round.
  inner_.clear();
  heard_.clear();
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
