// The indulgent RSM as a real multi-process service: one OS process per
// replica, spawned by this same binary acting as the launcher, talking
// over Unix-domain sockets (or TCP with --tcp) through the supervised
// socket transport.
//
//   $ ./socket_rsm_demo [--n N] [--tcp] [--chaos]
//
// Each replica process runs a fixed-rounds round driver (there is no shared
// memory, so the round count is agreed a priori), commits a 6-command
// replicated log, and ships its per-process binary trace log plus its
// committed log to disk.  The launcher waits for every child, merges the
// shipped logs into ONE RunTrace with a derived minimal conforming GST,
// re-checks it with the unchanged model validator, and compares the
// committed logs — which must be identical at every replica, by agreement.
//
// --chaos turns on the seeded wire-chaos layer for the first 150 ms:
// connects abort, accepted connections close, writes become resets, stalls,
// and byte-at-a-time dribbles.  The supervisors absorb all of it (reconnect
// with backoff, resend from the hold queues), so the verdict line must not
// change — that is the whole point.

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "net/round_driver.hpp"
#include "net/socket_transport.hpp"
#include "net/trace_ship.hpp"
#include "rsm/rsm.hpp"
#include "sim/harness.hpp"

namespace {

using namespace indulgence;

constexpr int kSlots = 6;
constexpr Round kWindow = 2;
// Slot s opens at round s * kWindow + 1; A_{t+2}+ff needs a few synchronous
// rounds per slot, so 18 rounds close every slot with margin even when the
// chaos window stretches the early rounds.
constexpr Round kRounds = 18;

struct DemoArgs {
  int n = 3;
  bool tcp = false;
  bool chaos = false;
  int node = -1;             ///< >= 0: run as replica `node` (internal)
  std::string dir;
  std::uint16_t base_port = 0;
};

SystemConfig config_of(const DemoArgs& args) {
  return SystemConfig{.n = args.n, .t = (args.n - 1) / 2};
}

std::vector<SocketAddress> addresses_of(const DemoArgs& args) {
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < args.n; ++i) {
    if (args.tcp) {
      addrs.push_back(SocketAddress::tcp_loopback(
          static_cast<std::uint16_t>(args.base_port + i)));
    } else {
      addrs.push_back(
          SocketAddress::unix_path(args.dir + "/p" + std::to_string(i) +
                                   ".sock"));
    }
  }
  return addrs;
}

AlgorithmFactory demo_factory() {
  RsmOptions rsm;
  rsm.num_slots = kSlots;
  rsm.slot_window = kWindow;
  At2Options ff;
  ff.failure_free_opt = true;
  return rsm_factory(
      at2_factory(hurfin_raynal_factory(), ff),
      [](ProcessId id) {
        std::vector<Value> cmds;
        for (int i = 0; i < kSlots; ++i) cmds.push_back(100 * (id + 1) + i);
        return cmds;
      },
      rsm);
}

std::string shipped_path(const DemoArgs& args, int pid) {
  return args.dir + "/p" + std::to_string(pid) + ".shipped";
}
std::string committed_path(const DemoArgs& args, int pid) {
  return args.dir + "/p" + std::to_string(pid) + ".committed";
}

// ---------------------------------------------------------------------------
// Replica process
// ---------------------------------------------------------------------------

int run_node(const DemoArgs& args) {
  const SystemConfig cfg = config_of(args);
  const ProcessId self = args.node;

  LiveOptions options;
  options.max_rounds = kRounds;

  SocketTransportOptions socket_options;
  socket_options.seed = 4242 + static_cast<std::uint64_t>(self);
  if (args.chaos) {
    WireChaosOptions chaos;
    chaos.seed = 99;  // per-link streams still differ (keyed by self, peer)
    chaos.until = std::chrono::milliseconds{150};
    chaos.connect_fail_prob = 0.25;
    chaos.accept_close_prob = 0.15;
    chaos.reset_prob = 0.1;
    chaos.stall_prob = 0.15;
    chaos.stall = std::chrono::microseconds{1'000};
    chaos.short_write_prob = 0.25;
    socket_options.chaos = chaos;
  }

  Mailbox mailbox(static_cast<std::size_t>(cfg.n) *
                  (static_cast<std::size_t>(kRounds) + 8));
  SocketEndpoint endpoint(self, cfg, addresses_of(args), socket_options,
                          &mailbox);
  RunControl control(cfg);
  control.on_stop = [&endpoint] { endpoint.expedite(); };
  endpoint.start(std::chrono::steady_clock::now());

  DriverContext ctx;
  ctx.self = self;
  ctx.config = cfg;
  ctx.options = &options;
  ctx.transport = &endpoint;
  ctx.mailbox = &mailbox;
  ctx.control = &control;
  ctx.supervision = &endpoint;
  ctx.fixed_rounds = kRounds;
  ctx.factory = demo_factory();
  ctx.proposal = 100 * (self + 1);
  ctx.epoch = std::chrono::steady_clock::now();
  RoundDriver driver(std::move(ctx));
  driver.run();
  if (driver.error()) {
    try {
      std::rethrow_exception(driver.error());
    } catch (const std::exception& e) {
      std::cerr << "replica " << self << ": " << e.what() << "\n";
    }
    return 1;
  }

  ShippedLog shipped;
  shipped.self = self;
  shipped.config = cfg;
  shipped.log = std::move(driver.log());
  shipped.undelivered = endpoint.stop_and_flush();
  for (NetEnvelope& env : mailbox.drain()) {
    shipped.undelivered.push_back(
        UndeliveredCopy{env.sender, self, env.send_round, env.target_round});
  }
  shipped.counters = endpoint.counters();
  write_shipped_log(shipped_path(args, self), shipped);

  const std::unique_ptr<RoundAlgorithm> algorithm = driver.take_algorithm();
  const auto* rep = dynamic_cast<const RsmReplica*>(algorithm.get());
  std::ofstream committed(committed_path(args, self), std::ios::trunc);
  for (int s = 0; rep && s < kSlots; ++s) {
    // The log covers only the slots this replica started.
    const auto slot = static_cast<std::size_t>(s);
    committed << (slot < rep->log().size() ? rep->log()[slot] : std::nullopt)
                     .value_or(kNoOpCommand)
              << "\n";
  }
  if (!rep || !rep->all_slots_committed()) {
    std::cerr << "replica " << self << ": only "
              << (rep ? rep->committed_prefix() : 0) << "/" << kSlots
              << " slots committed after " << shipped.log.completed
              << " rounds\n";
    return 1;
  }
  return committed ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

int launch(DemoArgs args) {
  const SystemConfig cfg = config_of(args);
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "indulgence-socket-rsm-XXXXXX")
                         .string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::cerr << "socket_rsm_demo: mkdtemp failed\n";
    return 1;
  }
  args.dir = tmpl;
  if (args.tcp) {
    // A pid-derived loopback port block; replicas bind base_port + pid.
    args.base_port =
        static_cast<std::uint16_t>(20'000 + (::getpid() % 20'000));
  }

  std::cout << "Indulgent RSM across " << cfg.n << " OS processes (t = "
            << cfg.t << ") over "
            << (args.tcp ? "TCP loopback" : "Unix-domain sockets")
            << (args.chaos ? ", wire chaos for the first 150 ms" : "")
            << "\n\n";

  std::vector<pid_t> children;
  for (int i = 0; i < cfg.n; ++i) {
    const pid_t child = ::fork();
    if (child < 0) {
      std::cerr << "socket_rsm_demo: fork failed\n";
      return 1;
    }
    if (child == 0) {
      const std::string node = std::to_string(i);
      const std::string n = std::to_string(args.n);
      const std::string port = std::to_string(args.base_port);
      std::vector<const char*> argv = {"/proc/self/exe", "--node",
                                       node.c_str(),     "--dir",
                                       args.dir.c_str(), "--n",
                                       n.c_str(),        "--port",
                                       port.c_str()};
      if (args.tcp) argv.push_back("--tcp");
      if (args.chaos) argv.push_back("--chaos");
      argv.push_back(nullptr);
      ::execv("/proc/self/exe", const_cast<char* const*>(argv.data()));
      std::perror("socket_rsm_demo: execv");
      std::_Exit(127);
    }
    children.push_back(child);
  }

  bool children_ok = true;
  for (pid_t child : children) {
    int status = 0;
    if (::waitpid(child, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      children_ok = false;
    }
  }

  // Ship: read every per-process binary log and merge into one trace.
  std::vector<ShippedLog> logs;
  for (int i = 0; i < cfg.n; ++i) {
    auto shipped = read_shipped_log(shipped_path(args, i));
    if (!shipped) {
      std::cerr << "socket_rsm_demo: replica " << i
                << " shipped no readable log\n";
      children_ok = false;
      continue;
    }
    logs.push_back(std::move(*shipped));
  }

  bool trace_valid = false;
  Round gst_round = 0;
  if (children_ok && static_cast<int>(logs.size()) == cfg.n) {
    const RunResult result = ship_and_merge(logs, true);
    trace_valid = result.validation.ok();
    gst_round = result.trace.gst();
    if (!trace_valid) std::cerr << result.validation.to_string() << "\n";
  }

  // The committed logs must be identical at every replica.
  bool logs_agree = children_ok;
  std::vector<std::string> reference;
  for (int i = 0; i < cfg.n && logs_agree; ++i) {
    std::ifstream in(committed_path(args, i));
    std::vector<std::string> mine;
    for (std::string line; std::getline(in, line);) mine.push_back(line);
    if (static_cast<int>(mine.size()) != kSlots) logs_agree = false;
    if (i == 0) {
      reference = mine;
    } else if (mine != reference) {
      logs_agree = false;
    }
  }

  Table table({"replica", "reconnects", "resends", "peer timeouts",
               "injected faults"});
  for (const ShippedLog& shipped : logs) {
    const SocketCounters& c = shipped.counters;
    table.add("p" + std::to_string(shipped.self), c.reconnects,
              c.envelopes_resent, c.peer_timeouts,
              c.injected_resets + c.injected_stalls +
                  c.injected_short_writes + c.injected_connect_failures +
                  c.injected_accept_closes);
  }
  table.print(std::cout, "supervisor counters per replica process");

  if (logs_agree && !reference.empty()) {
    std::cout << "\ncommitted log =";
    for (const std::string& v : reference) std::cout << " " << v;
    std::cout << "\n";
  }
  std::cout << "merged trace: "
            << (trace_valid ? "valid (derived GST round " +
                                  std::to_string(gst_round) + ")"
                            : "INVALID")
            << ", committed logs " << (logs_agree ? "agree" : "DISAGREE")
            << "\n";

  std::filesystem::remove_all(args.dir);
  const bool ok = children_ok && trace_valid && logs_agree;
  std::cout << (ok ? "\nOK: real processes, real sockets, one validated "
                     "trace, one log.\n"
                   : "\nFAILED — see above.\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  DemoArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tcp") {
      args.tcp = true;
    } else if (arg == "--chaos") {
      args.chaos = true;
    } else if (arg == "--n" && (v = value())) {
      args.n = std::atoi(v);
    } else if (arg == "--node" && (v = value())) {
      args.node = std::atoi(v);
    } else if (arg == "--dir" && (v = value())) {
      args.dir = v;
    } else if (arg == "--port" && (v = value())) {
      args.base_port = static_cast<std::uint16_t>(std::atoi(v));
    } else {
      std::cerr << "usage: socket_rsm_demo [--n N] [--tcp] [--chaos]\n";
      return 2;
    }
  }
  if (args.n < 3 || args.n > 13 || args.n % 2 == 0) {
    std::cerr << "socket_rsm_demo: need odd n in 3..13\n";
    return 2;
  }
  try {
    return args.node >= 0 ? run_node(args) : launch(std::move(args));
  } catch (const std::exception& e) {
    std::cerr << "socket_rsm_demo: " << e.what() << "\n";
    return 1;
  }
}
