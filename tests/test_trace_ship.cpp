// Multi-process trace shipping: the binary per-process log format must
// round-trip exactly and reject corruption and foreign versions, and a
// full fixed-rounds run — every "process" a ShardedNode hosting its one
// replica, exactly the multi-process topology minus the fork — must ship
// logs that merge into one trace the unchanged validator accepts.

#include "net/trace_ship.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "fuzz/targets.hpp"
#include "net/sharded_runtime.hpp"
#include "net/wire.hpp"
#include "sim/harness.hpp"
#include "sim/message.hpp"

namespace indulgence {
namespace {

using namespace std::chrono_literals;

std::string fresh_dir() {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "indulgence-ship-test-XXXXXX")
                         .string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed");
  }
  return tmpl;
}

ShippedLog sample_log() {
  ShippedLog shipped;
  shipped.self = 1;
  shipped.config = SystemConfig{.n = 3, .t = 1};
  shipped.log.proposal = 7;
  shipped.log.done = true;
  shipped.log.halt_round = 4;
  shipped.log.completed = 5;
  shipped.log.crash = CrashRecord{3, 1, true};
  shipped.log.sends.push_back(SendRecord{1, 1, false});
  shipped.log.sends.push_back(SendRecord{2, 1, true});
  shipped.log.deliveries.push_back(DeliveryRecord{
      1, 1, 0, 1, std::make_shared<HaltedMessage>(Value{9})});
  shipped.log.decisions.push_back(DecisionRecord{2, 1, 9});
  shipped.log.leftovers.push_back(UndeliveredCopy{0, 1, 2, 6});
  shipped.undelivered.push_back(UndeliveredCopy{1, 2, 5, 0});
  shipped.counters.reconnects = 3;
  shipped.counters.envelopes_resent = 8;
  shipped.counters.flush_syscalls = 11;
  return shipped;
}

TEST(TraceShip, ShippedLogRoundTripsExactly) {
  const std::string dir = fresh_dir();
  const std::string path = dir + "/p1.log";
  const ShippedLog original = sample_log();
  write_shipped_log(path, original);

  const std::optional<ShippedLog> loaded = read_shipped_log(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->self, original.self);
  EXPECT_EQ(loaded->config, original.config);
  EXPECT_EQ(loaded->log.proposal, original.log.proposal);
  EXPECT_EQ(loaded->log.done, original.log.done);
  EXPECT_EQ(loaded->log.halt_round, original.log.halt_round);
  EXPECT_EQ(loaded->log.completed, original.log.completed);
  ASSERT_TRUE(loaded->log.crash.has_value());
  EXPECT_EQ(loaded->log.crash->round, 3);
  EXPECT_TRUE(loaded->log.crash->before_send);
  ASSERT_EQ(loaded->log.sends.size(), 2u);
  EXPECT_TRUE(loaded->log.sends[1].dummy);
  ASSERT_EQ(loaded->log.deliveries.size(), 1u);
  EXPECT_EQ(loaded->log.deliveries[0].payload->describe(),
            original.log.deliveries[0].payload->describe());
  ASSERT_EQ(loaded->log.decisions.size(), 1u);
  EXPECT_EQ(loaded->log.decisions[0].value, 9);
  ASSERT_EQ(loaded->log.leftovers.size(), 1u);
  EXPECT_EQ(loaded->log.leftovers[0].target_round, 6);
  ASSERT_EQ(loaded->undelivered.size(), 1u);
  EXPECT_EQ(loaded->undelivered[0].send_round, 5);
  EXPECT_EQ(loaded->counters.reconnects, 3);
  EXPECT_EQ(loaded->counters.envelopes_resent, 8);
  EXPECT_EQ(loaded->counters.flush_syscalls, 11);
  std::filesystem::remove_all(dir);
}

TEST(TraceShip, MissingTruncatedAndForeignFilesReadAsNullopt) {
  const std::string dir = fresh_dir();
  EXPECT_FALSE(read_shipped_log(dir + "/nope.log").has_value());

  const std::string path = dir + "/p0.log";
  write_shipped_log(path, sample_log());
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Every strict prefix is a truncated file and must be rejected.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{17},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(read_shipped_log(path).has_value()) << "prefix " << cut;
  }
  // Wrong magic.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "definitely not a shipped log";
  }
  EXPECT_FALSE(read_shipped_log(path).has_value());
  std::filesystem::remove_all(dir);
}

TEST(TraceShip, V2GroupFieldsRoundTrip) {
  const std::string dir = fresh_dir();
  const std::string path = dir + "/g5.log";
  ShippedLog original = sample_log();
  original.group = 5;
  original.log.leftovers[0].group = 5;
  original.undelivered[0].group = 9;  // a foreign group's stray copy
  original.counters.demux_drops = 2;
  write_shipped_log(path, original);

  const std::optional<ShippedLog> loaded = read_shipped_log(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->group, 5);
  EXPECT_EQ(loaded->log.leftovers[0].group, 5);
  EXPECT_EQ(loaded->undelivered[0].group, 9);
  EXPECT_EQ(loaded->counters.demux_drops, 2);
  std::filesystem::remove_all(dir);
}

TEST(TraceShip, RetiredAndUnknownVersionsReadAsNullopt) {
  // Version 1 to 3 files, byte for byte as their writers produced them:
  // v1 had no group header, ungrouped copies and 14 counters; v2 added the
  // group fields and demux_drops, but no delivery emitters; v3 added the
  // emitters, but not flush_syscalls.  The reader speaks version 4 only,
  // so all three are foreign files now.
  auto retired = [](std::uint32_t version) {
    const bool v2 = version >= 2;
    WireWriter w;
    w.u32(0x314c5349);  // magic "ISL1"
    w.u32(version);
    if (v2) w.i32(0);  // group
    w.i32(1);          // self
    w.i32(3);          // n
    w.i32(1);          // t
    w.i64(7);          // proposal
    w.u8(1);           // done
    w.i32(4);          // halt_round
    w.i32(5);          // completed
    w.u8(0);           // no crash
    w.u32(1);          // sends
    w.i32(1);
    w.i32(1);
    w.u8(0);
    w.u32(1);  // deliveries
    w.i32(1);
    w.i32(1);
    w.i32(0);
    w.i32(1);
    if (version == 3) w.i32(-1);  // origin
    encode_message(HaltedMessage(9), w);
    w.u32(1);  // decisions
    w.i32(2);
    w.i32(1);
    w.i64(9);
    for (int list = 0; list < 2; ++list) {  // leftovers, then undelivered
      w.u32(1);
      w.i32(0);
      w.i32(1);
      w.i32(2);
      w.i32(6);
      if (v2) w.i32(0);  // group
    }
    for (int i = 0; i < (v2 ? 15 : 14); ++i) w.i64(i);  // counters
    return w.take();
  };
  auto write = [](const std::string& path,
                  const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };

  const std::string dir = fresh_dir();
  const std::string path = dir + "/old.log";
  for (std::uint32_t version : {1u, 2u, 3u}) {
    write(path, retired(version));
    EXPECT_FALSE(read_shipped_log(path).has_value()) << "version " << version;
  }

  // A current file under a version number the reader does not know is
  // rejected too.
  write_shipped_log(path, sample_log());
  ASSERT_TRUE(read_shipped_log(path).has_value());
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(bytes[4], 4);  // the u32 version after the u32 magic
  bytes[4] = 5;
  write(path, bytes);
  EXPECT_FALSE(read_shipped_log(path).has_value());
  std::filesystem::remove_all(dir);
}

TEST(TraceShip, MergeRejectsDuplicateAndMismatchedLogs) {
  ShippedLog a = sample_log();
  a.self = 0;
  a.log.crash.reset();
  ShippedLog b = a;  // duplicate pid 0
  ShippedLog c = a;
  c.self = 2;
  EXPECT_THROW(ship_and_merge({}, true), std::invalid_argument);
  EXPECT_THROW(ship_and_merge({a, b, c}, true), std::invalid_argument);
  ShippedLog wrong = a;
  wrong.self = 1;
  wrong.config = SystemConfig{.n = 4, .t = 1};
  EXPECT_THROW(ship_and_merge({a, wrong, c}, true), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end: fixed-rounds drivers over socket endpoints, shipped via files
// ---------------------------------------------------------------------------

/// Runs pid's whole life as one OS process would: a ShardedNode hosting
/// its one replica of group 0, run for a fixed round count, then its
/// shipped log serialized to `path`.
void run_one_replica(ProcessId pid, const SystemConfig& cfg,
                     const std::vector<SocketAddress>& addrs, Round rounds,
                     const AlgorithmFactory& factory, Value proposal,
                     const std::string& path) {
  LiveOptions options;
  options.max_rounds = rounds;
  SocketTransportOptions socket_options;
  socket_options.seed = 900 + static_cast<std::uint64_t>(pid);
  AddressResolver resolve = [&addrs](ProcessId node)
      -> std::optional<SocketAddress> {
    return addrs[static_cast<std::size_t>(node)];
  };
  ShardedNode node(pid, cfg.n, addrs[static_cast<std::size_t>(pid)], resolve,
                   socket_options, options);
  node.host(0, cfg, pid, group_placement(0, cfg.n, cfg.n), factory,
            proposal);
  try {
    const std::vector<ShippedLog> shipped = node.run(rounds);
    ASSERT_EQ(shipped.size(), 1u);
    write_shipped_log(path, shipped.front());
  } catch (const std::exception& e) {
    ADD_FAILURE() << "p" << pid << " failed: " << e.what();
  }
}

TEST(TraceShip, FixedRoundReplicasShipLogsThatMergeAndValidate) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const Round rounds = 6;
  const FuzzTarget* target = find_fuzz_target("hr");
  ASSERT_NE(target, nullptr);
  const std::vector<Value> proposals = distinct_proposals(cfg.n);

  const std::string dir = fresh_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  std::vector<std::thread> replicas;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    replicas.emplace_back([&, pid] {
      run_one_replica(pid, cfg, addrs, rounds, target->factory,
                      proposals[static_cast<std::size_t>(pid)],
                      dir + "/p" + std::to_string(pid) + ".shipped");
    });
  }
  for (std::thread& t : replicas) t.join();

  std::vector<ShippedLog> logs;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    auto shipped =
        read_shipped_log(dir + "/p" + std::to_string(pid) + ".shipped");
    ASSERT_TRUE(shipped.has_value()) << "p" << pid;
    EXPECT_EQ(shipped->log.completed, rounds) << "p" << pid;
    logs.push_back(std::move(*shipped));
  }
  const RunResult result = ship_and_merge(std::move(logs), true);
  // Whatever the wall clock did, the merged trace is model-valid and safe.
  EXPECT_TRUE(result.validation.ok()) << result.validation.to_string() << "\n"
                                      << result.trace.to_string();
  EXPECT_TRUE(result.agreement) << result.trace.to_string();
  EXPECT_TRUE(result.validity) << result.trace.to_string();
  // A decision is owed only when the run was synchronous from round 1: HR
  // then decides by round 2t + 2 = 4 <= 6 (PAPER.md R5).  A later derived
  // GST can leave the 6 fixed rounds without one.
  if (result.trace.gst() == 1) {
    EXPECT_TRUE(result.ok()) << result.summary() << "\n"
                             << result.trace.to_string();
    EXPECT_TRUE(result.global_decision_round.has_value());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace indulgence
