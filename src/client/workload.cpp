#include "client/workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/sharded_runtime.hpp"

namespace indulgence::client {

namespace {

/// Width of one throughput-sample bin.
constexpr std::chrono::microseconds kSamplePeriod{250'000};

void cas_min(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void cas_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

ClientFleet::ClientFleet(const WorkloadOptions& options, int num_groups,
                         int replicas_per_group)
    : options_(options), num_groups_(num_groups), replicas_(replicas_per_group) {
  if (options_.num_clients < 1 ||
      options_.num_clients > (1 << kClientBits)) {
    throw std::invalid_argument("ClientFleet: bad num_clients");
  }
  if (num_groups_ < 1 || replicas_ < 1) {
    throw std::invalid_argument("ClientFleet: bad target shape");
  }
  if (options_.measure_commands < 1 || options_.warmup_commands < 0) {
    throw std::invalid_argument("ClientFleet: bad command counts");
  }
  if (options_.mode == LoopMode::Closed && options_.outstanding < 1) {
    throw std::invalid_argument("ClientFleet: outstanding must be >= 1");
  }
  if (options_.mode != LoopMode::Closed &&
      (options_.pending_window < 1 || !(options_.target_rate_per_sec > 0))) {
    throw std::invalid_argument("ClientFleet: bad open-loop options");
  }
  ack_target_ = options_.warmup_commands + options_.measure_commands;

  queues_.resize(static_cast<std::size_t>(num_groups_) *
                 static_cast<std::size_t>(replicas_));
  for (auto& q : queues_) q = std::make_unique<IngestQueue>();

  const double per_client =
      options_.target_rate_per_sec / options_.num_clients;
  for (int i = 0; i < options_.num_clients; ++i) {
    auto c = std::make_unique<Client>();
    c->id = i;
    if (options_.mode != LoopMode::Closed) {
      ArrivalOptions ao;
      if (options_.mode == LoopMode::OpenBursty) {
        // ON and OFF windows keep ArrivalOptions' defaults; the ON rate is
        // scaled so the long-run mean meets the target.
        ao.kind = ArrivalKind::Bursty;
        const double on = static_cast<double>(ao.on_period.count());
        const double off = static_cast<double>(ao.off_period.count());
        ao.rate_per_sec = per_client * (on + off) / on;
      } else {
        ao.kind = ArrivalKind::Poisson;
        ao.rate_per_sec = per_client;
      }
      c->arrivals = std::make_unique<ArrivalProcess>(
          ao, options_.seed, static_cast<std::uint64_t>(i));
    }
    clients_.push_back(std::move(c));
  }

  const auto nbins = static_cast<std::size_t>(
      options_.deadline.count() / kSamplePeriod.count() + 2);
  bins_ = std::vector<std::atomic<long>>(nbins);
  for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
}

ClientFleet::~ClientFleet() { finish(); }

std::uint64_t ClientFleet::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

GroupId ClientFleet::group_of(Value command) const {
  if (num_groups_ <= 1) return 0;
  return group_for_key(static_cast<std::uint64_t>(command), num_groups_);
}

ProcessId ClientFleet::home_replica_of(Value command) const {
  // A different mix than group_for_key so group and home replica are
  // independent partitions of the command space.
  return static_cast<ProcessId>(
      SplitMix64(static_cast<std::uint64_t>(command) ^
                 0xc0ffee5eedULL)
          .next() %
      static_cast<std::uint64_t>(replicas_));
}

RsmCommandSource ClientFleet::source_for(GroupId group, ProcessId pid) {
  IngestQueue* q = queues_[static_cast<std::size_t>(group) *
                               static_cast<std::size_t>(replicas_) +
                           static_cast<std::size_t>(pid)]
                       .get();
  return [q]() { return q->pull(); };
}

RsmCommitCallback ClientFleet::commit_for(GroupId, ProcessId) {
  return [this](int, Value value, Round) { on_commit(value); };
}

DonePredicate ClientFleet::done_predicate() {
  return [this](const RoundAlgorithm&) {
    if (target_reached()) return true;
    if (std::chrono::steady_clock::now() >= deadline_at_) {
      hit_deadline_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
}

void ClientFleet::note_arrival(std::uint64_t at_us) {
  cas_min(first_arrival_us_, at_us);
  cas_max(last_arrival_us_, at_us);
}

void ClientFleet::submit_locked(Client& c) {
  const long seq = static_cast<long>(c.states.size());
  c.states.push_back(CommandState::Pending);
  const Value cmd = encode_command(c.id, seq);
  const std::uint64_t at = now_us();
  c.outstanding.emplace(seq, at);
  total_submitted_.fetch_add(1, std::memory_order_relaxed);
  note_arrival(at);
  queues_[static_cast<std::size_t>(group_of(cmd)) *
              static_cast<std::size_t>(replicas_) +
          static_cast<std::size_t>(home_replica_of(cmd))]
      ->push(cmd);
}

void ClientFleet::shed_locked(Client& c) {
  c.states.push_back(CommandState::Shed);
  ++c.shed;
  note_arrival(now_us());
}

void ClientFleet::abandon_expired_locked(Client& c) {
  const std::uint64_t now = now_us();
  const auto timeout =
      static_cast<std::uint64_t>(options_.ack_timeout.count());
  for (auto it = c.outstanding.begin(); it != c.outstanding.end();) {
    if (now - it->second > timeout) {
      c.states[static_cast<std::size_t>(it->first)] = CommandState::Abandoned;
      ++c.abandoned;
      it = c.outstanding.erase(it);
    } else {
      ++it;
    }
  }
}

void ClientFleet::closed_loop(Client& c) {
  // Fills the window; after that every ack submits its own replacement
  // (on_commit), so this thread only refills what abandonment frees.
  const long k = options_.outstanding;
  const bool timed = options_.ack_timeout.count() > 0;
  const auto stopped = [&] { return stop_.load(std::memory_order_relaxed); };
  std::unique_lock<std::mutex> lock(c.mutex);
  while (!stopped()) {
    if (timed) abandon_expired_locked(c);
    if (static_cast<long>(c.outstanding.size()) < k) {
      submit_locked(c);
      continue;
    }
    if (timed) {
      // Wake at least every half-timeout so abandons are detected.
      c.cv.wait_for(lock,
                    std::min(options_.ack_timeout / 2,
                             std::chrono::microseconds{100'000}),
                    stopped);
    } else {
      c.cv.wait(lock, stopped);
    }
  }
}

void ClientFleet::open_loop(Client& c) {
  const bool timed = options_.ack_timeout.count() > 0;
  std::uint64_t next = c.arrivals->next_arrival_us();
  std::unique_lock<std::mutex> lock(c.mutex);
  while (!stop_.load(std::memory_order_relaxed)) {
    const auto when = epoch_ + std::chrono::microseconds(next);
    if (std::chrono::steady_clock::now() < when) {
      c.cv.wait_until(lock, when, [&] {
        return stop_.load(std::memory_order_relaxed);
      });
      if (stop_.load(std::memory_order_relaxed)) break;
      if (std::chrono::steady_clock::now() < when) continue;  // spurious
    }
    // At or past the arrival instant: submit (catching up without sleeping
    // when behind schedule keeps the offered rate on target), or shed when
    // the pending window is full — the open loop never blocks on acks.
    if (timed) abandon_expired_locked(c);
    if (static_cast<long>(c.outstanding.size()) >= options_.pending_window) {
      shed_locked(c);
    } else {
      submit_locked(c);
    }
    next = c.arrivals->next_arrival_us();
  }
}

void ClientFleet::on_commit(Value value) {
  if (is_rsm_noop(value)) return;  // empty-slot filler, not a client command
  const auto id = decode_command(value, options_.num_clients);
  if (!id) {
    phantom_.store(true, std::memory_order_relaxed);
    return;
  }
  Client& c = *clients_[static_cast<std::size_t>(id->client)];
  std::lock_guard<std::mutex> lock(c.mutex);
  if (id->seq < 0 || id->seq >= static_cast<long>(c.states.size())) {
    phantom_.store(true, std::memory_order_relaxed);
    return;
  }
  CommandState& state = c.states[static_cast<std::size_t>(id->seq)];
  switch (state) {
    case CommandState::Pending: {
      const std::uint64_t now = now_us();
      const auto it = c.outstanding.find(id->seq);
      const std::uint64_t submitted_at =
          it != c.outstanding.end() ? it->second : now;
      if (it != c.outstanding.end()) c.outstanding.erase(it);
      state = CommandState::Acked;
      const long index = total_acked_.fetch_add(1, std::memory_order_relaxed);
      const auto latency = static_cast<std::int64_t>(now - submitted_at);
      if (index < options_.warmup_commands) {
        c.warmup_hist.record(latency);
      } else {
        c.measure_hist.record(latency);
        cas_min(first_measured_us_, now);
        cas_max(last_measured_us_, now);
      }
      const auto bin = std::min(
          static_cast<std::size_t>(
              now / static_cast<std::uint64_t>(
                        kSamplePeriod.count())),
          bins_.size() - 1);
      bins_[bin].fetch_add(1, std::memory_order_relaxed);
      // A closed-loop client's replacement goes out here, on the committing
      // thread, instead of waking the client thread for it.  submit_locked
      // grows c.states, so `state` is not used past this point.
      if (options_.mode == LoopMode::Closed) submit_locked(c);
      break;
    }
    case CommandState::Acked:
    case CommandState::AckedLate:
      // Another replica learning the same slot — expected, not a duplicate
      // commit.  (True duplicates are caught by the log-scan oracle.)
      break;
    case CommandState::Abandoned:
      state = CommandState::AckedLate;
      ++c.late_acks;
      break;
    case CommandState::Shed:
      // A shed arrival was never pushed anywhere; its commit would mean
      // the system invented a command.
      phantom_.store(true, std::memory_order_relaxed);
      break;
  }
}

void ClientFleet::start(std::chrono::steady_clock::time_point epoch) {
  if (started_.exchange(true)) {
    throw std::logic_error("ClientFleet: started twice");
  }
  epoch_ = epoch;
  deadline_at_ = epoch + options_.deadline;
  for (auto& c : clients_) {
    Client* raw = c.get();
    c->thread = std::thread([this, raw] {
      if (options_.mode == LoopMode::Closed) {
        closed_loop(*raw);
      } else {
        open_loop(*raw);
      }
    });
  }
}

void ClientFleet::finish() {
  if (!started_.load() || finished_) return;
  stop_.store(true, std::memory_order_relaxed);
  for (auto& c : clients_) {
    std::lock_guard<std::mutex> lock(c->mutex);
    c->cv.notify_all();
  }
  for (auto& c : clients_) {
    if (c->thread.joinable()) c->thread.join();
  }
  finished_ = true;
}

FleetCounters ClientFleet::counters() const {
  FleetCounters out;
  for (const auto& c : clients_) {
    out.shed += c->shed;
    out.late_acks += c->late_acks;
    out.abandoned += c->abandoned - c->late_acks;  // late ones moved out
    for (const CommandState state : c->states) {
      if (state != CommandState::Shed) ++out.submitted;
      switch (state) {
        case CommandState::Acked:
          ++out.acked;
          break;
        case CommandState::Pending:
          ++out.pending_at_stop;
          break;
        default:
          break;
      }
    }
  }
  out.warmup_acked = std::min<long>(out.acked, options_.warmup_commands);
  out.measured_acked = out.acked - out.warmup_acked;
  return out;
}

LatencyHistogram ClientFleet::merged_measure_histogram() const {
  LatencyHistogram merged;
  for (const auto& c : clients_) merged.merge(c->measure_hist);
  return merged;
}

LatencyHistogram ClientFleet::merged_warmup_histogram() const {
  LatencyHistogram merged;
  for (const auto& c : clients_) merged.merge(c->warmup_hist);
  return merged;
}

std::vector<long> ClientFleet::throughput_samples() const {
  std::size_t last = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i].load(std::memory_order_relaxed) != 0) last = i + 1;
  }
  std::vector<long> out;
  out.reserve(last);
  for (std::size_t i = 0; i < last; ++i) {
    out.push_back(bins_[i].load(std::memory_order_relaxed));
  }
  return out;
}

double ClientFleet::measured_span_seconds() const {
  const std::uint64_t first = first_measured_us_.load();
  const std::uint64_t last = last_measured_us_.load();
  return last > first ? static_cast<double>(last - first) / 1e6 : 0.0;
}

double ClientFleet::offered_span_seconds() const {
  const std::uint64_t first = first_arrival_us_.load();
  const std::uint64_t last = last_arrival_us_.load();
  return last > first ? static_cast<double>(last - first) / 1e6 : 0.0;
}

long ClientFleet::total_offered() const {
  long shed = 0;
  for (const auto& c : clients_) shed += c->shed;
  return total_submitted_.load() + shed;
}

CommandState ClientFleet::state_of(int client, long seq) const {
  return clients_[static_cast<std::size_t>(client)]
      ->states[static_cast<std::size_t>(seq)];
}

long ClientFleet::seqs_of(int client) const {
  return static_cast<long>(
      clients_[static_cast<std::size_t>(client)]->states.size());
}

}  // namespace indulgence::client
