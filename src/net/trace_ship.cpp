#include "net/trace_ship.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "net/live_trace.hpp"
#include "net/wire.hpp"

namespace indulgence {

namespace {

constexpr std::uint32_t kMagic = 0x314c5349;  // "ISL1" little-endian
/// The one version read or written.  Versions 1 and 2 lacked the group
/// fields and the deliveries' emitters; no such file is kept anywhere, so
/// they read as foreign files.
constexpr std::uint32_t kVersion = 3;
/// Per-vector sanity cap: a corrupt count must not drive an allocation.
constexpr std::uint32_t kMaxRecords = 1u << 24;

void put_counters(WireWriter& w, const SocketCounters& c) {
  w.i64(c.connect_attempts);
  w.i64(c.connect_failures);
  w.i64(c.reconnects);
  w.i64(c.envelopes_sent);
  w.i64(c.envelopes_resent);
  w.i64(c.envelopes_delivered);
  w.i64(c.duplicates_dropped);
  w.i64(c.heartbeats_sent);
  w.i64(c.peer_timeouts);
  w.i64(c.injected_resets);
  w.i64(c.injected_stalls);
  w.i64(c.injected_short_writes);
  w.i64(c.injected_connect_failures);
  w.i64(c.injected_accept_closes);
  w.i64(c.demux_drops);
}

bool get_counters(WireReader& r, SocketCounters& c) {
  long* fields[] = {&c.connect_attempts,  &c.connect_failures,
                    &c.reconnects,        &c.envelopes_sent,
                    &c.envelopes_resent,  &c.envelopes_delivered,
                    &c.duplicates_dropped, &c.heartbeats_sent,
                    &c.peer_timeouts,     &c.injected_resets,
                    &c.injected_stalls,   &c.injected_short_writes,
                    &c.injected_connect_failures,
                    &c.injected_accept_closes, &c.demux_drops};
  for (long* f : fields) {
    auto v = r.i64();
    if (!v) return false;
    *f = static_cast<long>(*v);
  }
  return true;
}

void put_copy(WireWriter& w, const UndeliveredCopy& c) {
  w.i32(c.sender);
  w.i32(c.receiver);
  w.i32(c.send_round);
  w.i32(c.target_round);
  w.i32(c.group);
}

bool get_copy(WireReader& r, UndeliveredCopy& c) {
  auto sender = r.i32();
  auto receiver = r.i32();
  auto send_round = r.i32();
  auto target_round = r.i32();
  auto group = r.i32();
  if (!sender || !receiver || !send_round || !target_round || !group) {
    return false;
  }
  c = UndeliveredCopy{*sender, *receiver, *send_round, *target_round, *group};
  return true;
}

std::optional<std::uint32_t> get_count(WireReader& r) {
  auto count = r.u32();
  if (!count || *count > kMaxRecords) return std::nullopt;
  return count;
}

}  // namespace

void write_shipped_log(const std::string& path, const ShippedLog& shipped) {
  WireWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.i32(shipped.group);
  w.i32(shipped.self);
  w.i32(shipped.config.n);
  w.i32(shipped.config.t);

  const ProcessLog& log = shipped.log;
  w.i64(log.proposal);
  w.u8(log.done ? 1 : 0);
  w.i32(log.halt_round);
  w.i32(log.completed);
  w.u8(log.crash ? 1 : 0);
  if (log.crash) {
    w.i32(log.crash->round);
    w.i32(log.crash->pid);
    w.u8(log.crash->before_send ? 1 : 0);
  }
  w.u32(static_cast<std::uint32_t>(log.sends.size()));
  for (const SendRecord& s : log.sends) {
    w.i32(s.round);
    w.i32(s.sender);
    w.u8(s.dummy ? 1 : 0);
  }
  w.u32(static_cast<std::uint32_t>(log.deliveries.size()));
  for (const DeliveryRecord& d : log.deliveries) {
    w.i32(d.recv_round);
    w.i32(d.receiver);
    w.i32(d.sender);
    w.i32(d.send_round);
    w.i32(d.origin);
    encode_message(*d.payload, w);
  }
  w.u32(static_cast<std::uint32_t>(log.decisions.size()));
  for (const DecisionRecord& d : log.decisions) {
    w.i32(d.round);
    w.i32(d.pid);
    w.i64(d.value);
  }
  w.u32(static_cast<std::uint32_t>(log.leftovers.size()));
  for (const UndeliveredCopy& c : log.leftovers) put_copy(w, c);
  w.u32(static_cast<std::uint32_t>(shipped.undelivered.size()));
  for (const UndeliveredCopy& c : shipped.undelivered) put_copy(w, c);
  put_counters(w, shipped.counters);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("trace ship: cannot open " + path);
  }
  const std::vector<std::uint8_t>& bytes = w.bytes();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error("trace ship: short write to " + path);
  }
}

std::optional<ShippedLog> read_shipped_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  WireReader r(bytes.data(), bytes.size());

  auto magic = r.u32();
  auto version = r.u32();
  if (!magic || *magic != kMagic || !version || *version != kVersion) {
    return std::nullopt;
  }
  ShippedLog shipped;
  auto group = r.i32();
  auto self = r.i32();
  auto n = r.i32();
  auto t = r.i32();
  if (!group || !self || !n || !t) return std::nullopt;
  shipped.group = *group;
  shipped.self = *self;
  shipped.config = SystemConfig{*n, *t};

  ProcessLog& log = shipped.log;
  auto proposal = r.i64();
  auto done = r.u8();
  auto halt_round = r.i32();
  auto completed = r.i32();
  auto has_crash = r.u8();
  if (!proposal || !done || !halt_round || !completed || !has_crash) {
    return std::nullopt;
  }
  log.proposal = *proposal;
  log.done = *done != 0;
  log.halt_round = *halt_round;
  log.completed = *completed;
  if (*has_crash != 0) {
    auto round = r.i32();
    auto pid = r.i32();
    auto before = r.u8();
    if (!round || !pid || !before) return std::nullopt;
    log.crash = CrashRecord{*round, *pid, *before != 0};
  }

  auto send_count = get_count(r);
  if (!send_count) return std::nullopt;
  log.sends.reserve(*send_count);
  for (std::uint32_t i = 0; i < *send_count; ++i) {
    auto round = r.i32();
    auto sender = r.i32();
    auto dummy = r.u8();
    if (!round || !sender || !dummy) return std::nullopt;
    log.sends.push_back(SendRecord{*round, *sender, *dummy != 0});
  }

  auto delivery_count = get_count(r);
  if (!delivery_count) return std::nullopt;
  log.deliveries.reserve(*delivery_count);
  for (std::uint32_t i = 0; i < *delivery_count; ++i) {
    auto recv_round = r.i32();
    auto receiver = r.i32();
    auto sender = r.i32();
    auto send_round = r.i32();
    auto origin = r.i32();
    if (!recv_round || !receiver || !sender || !send_round || !origin) {
      return std::nullopt;
    }
    MessagePtr payload = decode_message(r);
    if (!payload) return std::nullopt;
    log.deliveries.push_back(DeliveryRecord{*recv_round, *receiver, *sender,
                                            *send_round, std::move(payload),
                                            *origin});
  }

  auto decision_count = get_count(r);
  if (!decision_count) return std::nullopt;
  log.decisions.reserve(*decision_count);
  for (std::uint32_t i = 0; i < *decision_count; ++i) {
    auto round = r.i32();
    auto pid = r.i32();
    auto value = r.i64();
    if (!round || !pid || !value) return std::nullopt;
    log.decisions.push_back(DecisionRecord{*round, *pid, *value});
  }

  auto leftover_count = get_count(r);
  if (!leftover_count) return std::nullopt;
  log.leftovers.reserve(*leftover_count);
  for (std::uint32_t i = 0; i < *leftover_count; ++i) {
    UndeliveredCopy c;
    if (!get_copy(r, c)) return std::nullopt;
    log.leftovers.push_back(c);
  }

  auto undelivered_count = get_count(r);
  if (!undelivered_count) return std::nullopt;
  shipped.undelivered.reserve(*undelivered_count);
  for (std::uint32_t i = 0; i < *undelivered_count; ++i) {
    UndeliveredCopy c;
    if (!get_copy(r, c)) return std::nullopt;
    shipped.undelivered.push_back(c);
  }

  if (!get_counters(r, shipped.counters)) return std::nullopt;
  if (!r.done()) return std::nullopt;  // trailing garbage
  return shipped;
}

RunResult ship_and_merge(std::vector<ShippedLog> logs, bool terminated) {
  if (logs.empty()) {
    throw std::invalid_argument("trace ship: no logs to merge");
  }
  const SystemConfig config = logs.front().config;
  config.validate();
  if (logs.size() != static_cast<std::size_t>(config.n)) {
    throw std::invalid_argument("trace ship: expected " +
                                std::to_string(config.n) + " logs, got " +
                                std::to_string(logs.size()));
  }
  const GroupId group = logs.front().group;
  std::vector<ProcessLog> process_logs(logs.size());
  std::vector<char> present(logs.size(), 0);
  std::vector<UndeliveredCopy> undelivered;
  for (ShippedLog& shipped : logs) {
    if (shipped.group != group) {
      throw std::invalid_argument(
          "trace ship: mixed groups in one merge (use "
          "ship_and_merge_groups)");
    }
    if (!(shipped.config == config)) {
      throw std::invalid_argument("trace ship: config mismatch in p" +
                                  std::to_string(shipped.self));
    }
    if (shipped.self < 0 || shipped.self >= config.n ||
        present[static_cast<std::size_t>(shipped.self)]) {
      throw std::invalid_argument("trace ship: missing or duplicate pid " +
                                  std::to_string(shipped.self));
    }
    present[static_cast<std::size_t>(shipped.self)] = 1;
    process_logs[static_cast<std::size_t>(shipped.self)] =
        std::move(shipped.log);
    undelivered.insert(undelivered.end(), shipped.undelivered.begin(),
                       shipped.undelivered.end());
  }

  LiveMergeInput merge;
  merge.config = config;
  merge.model = Model::ES;
  merge.gst_hint = 0;  // derive the minimal conforming GST
  merge.terminated = terminated;
  merge.logs = &process_logs;
  merge.undelivered = std::move(undelivered);
  return merge_and_judge(merge);
}

std::map<GroupId, RunResult> ship_and_merge_groups(
    std::vector<ShippedLog> logs, bool terminated) {
  std::map<GroupId, std::vector<ShippedLog>> by_group;
  for (ShippedLog& shipped : logs) {
    by_group[shipped.group].push_back(std::move(shipped));
  }
  std::map<GroupId, RunResult> results;
  for (auto& [group, partition] : by_group) {
    results.emplace(group, ship_and_merge(std::move(partition), terminated));
  }
  return results;
}

SocketCounters total_counters(const std::vector<ShippedLog>& logs) {
  SocketCounters total;
  for (const ShippedLog& shipped : logs) total += shipped.counters;
  return total;
}

}  // namespace indulgence
