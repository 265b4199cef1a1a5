// X5-socket — the RSM service over real sockets (extension).
//
// Same RsmReplica code and done/observer plumbing as X5, but the envelopes
// leave the address space: instead of the live runtime's router, the cell
// runs as one group of run_sharded over the in-process socket fabric, one
// supervised endpoint per replica over Unix-domain sockets or TCP loopback.
// Each transport runs clean and then under the seeded wire-chaos layer
// (connect failures, accepted-then-closed, resets, stalls, short writes for
// the first 2 ms), which is where the supervisor earns its
// keep: commits must keep landing and the merged trace must still pass the
// unchanged model validator, with the reconnect/backoff work showing up as
// counters, not as lost commands.
//
// stdout is the deterministic correctness table; commit latencies and the
// supervisor counters (reconnects, resends, injected faults — all
// timing-dependent) go to stderr.

#include <cstdio>
#include <vector>

#include "live_rsm_cell.hpp"

namespace indulgence {
namespace {

constexpr int kSlots = 8;
constexpr Round kWindow = 2;

struct Cell {
  SystemConfig cfg;
  std::string scenario;
  SocketAddress::Kind kind;
  SocketTransportOptions socket_options;
};

bench::LiveRsmOutcome run_cell(const Cell& cell) {
  At2Options ff;
  ff.failure_free_opt = true;
  // LiveOptions{}: rounds as fast as the sockets carry them.
  return bench::run_live_rsm(cell.cfg, kSlots, kWindow,
                             at2_factory(hurfin_raynal_factory(), ff),
                             LiveOptions{}, cell.kind, cell.socket_options);
}

SocketTransportOptions chaotic(std::uint64_t seed) {
  SocketTransportOptions socket_options;
  socket_options.seed = seed;
  WireChaosOptions chaos;
  chaos.seed = seed ^ 0x9e3779b97f4a7c15ull;
  chaos.until = std::chrono::microseconds{2'000};
  chaos.connect_fail_prob = 0.25;
  chaos.accept_close_prob = 0.15;
  chaos.reset_prob = 0.1;
  chaos.stall_prob = 0.15;
  chaos.stall = std::chrono::microseconds{500};
  chaos.short_write_prob = 0.25;
  socket_options.chaos = chaos;
  return socket_options;
}

}  // namespace
}  // namespace indulgence

int main() {
  using namespace indulgence;
  bench::print_header(
      "X5-socket — RSM commit latency over real sockets: UDS vs TCP, "
      "clean vs wire chaos",
      "one supervised endpoint per replica; trace re-validated");

  std::vector<Cell> cells;
  for (int n : {3, 5}) {
    const SystemConfig cfg{.n = n, .t = (n - 1) / 2};
    SocketTransportOptions clean;
    clean.seed = 71;
    cells.push_back({cfg, "UDS", SocketAddress::Kind::Unix, clean});
    cells.push_back({cfg, "UDS + chaos", SocketAddress::Kind::Unix,
                     chaotic(72)});
    cells.push_back({cfg, "TCP", SocketAddress::Kind::Tcp, clean});
    cells.push_back({cfg, "TCP + chaos", SocketAddress::Kind::Tcp,
                     chaotic(73)});
  }

  bool ok = true;
  long runs = 0;
  double uds_clean_p50 = 0;
  bench::Stopwatch watch;
  bench::JsonWriter json(bench::artifact_path("BENCH_x5_socket.json"));
  json.begin_object();
  json.key("bench").value("x5_socket");
  json.key("slots").value(kSlots);
  json.key("cells").begin_array();
  Table table({"n", "t", "transport", "all committed", "trace valid"});
  for (const Cell& cell : cells) {
    const bench::LiveRsmOutcome out = run_cell(cell);
    ++runs;
    ok &= out.committed && out.trace_valid;
    table.add(cell.cfg.n, cell.cfg.t, cell.scenario,
              bench::check_mark(out.committed),
              bench::check_mark(out.trace_valid));
    const SocketCounters& c = out.counters;
    const double commits_per_sec =
        out.seconds > 0 ? static_cast<double>(kSlots) / out.seconds : 0;
    const double p50 = bench::percentile_of(out.latencies_us, 0.50);
    const double p99 = bench::percentile_of(out.latencies_us, 0.99);
    std::fprintf(
        stderr,
        "X5-socket n=%d %-12s %2d rounds, %6.0f commits/s, commit latency "
        "p50 %7.0f us  p99 %7.0f us | %ld reconnects, %ld resends, %ld "
        "injected faults\n",
        cell.cfg.n, cell.scenario.c_str(), out.rounds, commits_per_sec, p50,
        p99, c.reconnects, c.envelopes_resent, c.injected_faults());
    json.begin_object();
    json.key("n").value(cell.cfg.n);
    json.key("t").value(cell.cfg.t);
    json.key("transport").value(cell.scenario);
    json.key("committed").value(out.committed);
    json.key("trace_valid").value(out.trace_valid);
    json.key("rounds").value(out.rounds);
    json.key("commits_per_sec").value(commits_per_sec);
    json.key("commit_latency_p50_us").value(p50);
    json.key("commit_latency_p99_us").value(p99);
    json.key("counters").begin_object();
    json.key("reconnects").value(c.reconnects);
    json.key("envelopes_sent").value(c.envelopes_sent);
    json.key("envelopes_resent").value(c.envelopes_resent);
    json.key("flush_syscalls").value(c.flush_syscalls);
    json.key("duplicates_dropped").value(c.duplicates_dropped);
    json.key("peer_timeouts").value(c.peer_timeouts);
    json.key("injected_faults").value(c.injected_faults());
    json.end_object();
    json.end_object();
    if (cell.cfg.n == 3 && cell.scenario == "UDS") {
      uds_clean_p50 = p50;
    }
  }
  json.end_array();
  json.key("ok").value(ok);

  // Before/after trajectory: the first cell (n=3 clean UDS) against the
  // previous PR's checked-in artifact.  Reported, not gated — absolute
  // latencies are machine-dependent; CI and the PR description carry the
  // comparison.
  const std::string baseline_path =
      std::string(INDULGENCE_BENCH_BASELINE_DIR) +
      "/BENCH_x5_socket.pr6.json";
  const std::vector<double> base_p50s =
      bench::scan_json_numbers(baseline_path, "commit_latency_p50_us");
  const double base_p50 = base_p50s.empty() ? 0 : base_p50s.front();
  json.key("baseline").begin_object();
  json.key("baseline_available").value(base_p50 > 0);
  json.key("baseline_uds_clean_p50_us").value(base_p50);
  json.key("uds_clean_p50_us").value(uds_clean_p50);
  json.key("uds_clean_p50_vs_baseline")
      .value(base_p50 > 0 ? uds_clean_p50 / base_p50 : 0.0);
  json.end_object();
  if (base_p50 > 0) {
    std::fprintf(stderr,
                 "X5-socket before/after: UDS clean n=3 p50 %.0f us vs PR6 "
                 "baseline %.0f us (%.2fx)\n",
                 uds_clean_p50, base_p50, uds_clean_p50 / base_p50);
  }
  json.end_object();
  table.print(std::cout,
              "X5-socket: 8-command log, A_{t+2}+ff slots, window 2");
  std::cout
      << "Reading: moving the service onto real sockets costs syscalls and,\n"
         "under wire chaos, reconnect/backoff work — the supervisor's\n"
         "counters — but the RSM's guarantees do not move: every replica\n"
         "commits the same log and the merged trace stays model-valid.\n\n";
  std::cout << (ok ? "X5-socket OK.\n" : "X5-socket FAILED.\n");
  watch.report("X5-socket", runs, 1);
  return ok ? 0 : 1;
}
