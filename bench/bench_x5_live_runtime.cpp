// X5 — the live runtime as an RSM service (extension).
//
// The seven algorithms and the benches above all run on the lockstep
// kernel; X5 runs the SAME RsmReplica code as a real concurrent service on
// the src/net runtime — one thread per replica, messages through the
// fault-injecting router — and measures what the paper's "price of
// indulgence" costs in wall-clock terms: commit latency and throughput as
// the wall-clock GST moves out and as faults are injected, for
// n in {3, 5, 7}.
//
// stdout is the deterministic correctness table (all slots committed, and
// the merged trace re-validated by the model checker); every wall-clock
// number — commits/s, p50/p99 per-command commit latency, rounds executed
// — goes to stderr, where machine-dependent output belongs.

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
  LiveOptions options;
};

bench::LiveRsmOutcome run_cell(const Cell& cell) {
  At2Options ff;
  ff.failure_free_opt = true;
  return bench::run_live_rsm(cell.cfg, kSlots, kWindow,
                             at2_factory(hurfin_raynal_factory(), ff),
                             cell.options);
}

}  // namespace
}  // namespace indulgence

int main() {
  using namespace indulgence;
  bench::print_header(
      "X5 — live runtime: RSM commit latency vs GST offset and faults",
      "real threads + fault-injecting router; trace re-validated");

  std::vector<Cell> cells;
  for (int n : {3, 5, 7}) {
    const SystemConfig cfg{.n = n, .t = (n - 1) / 2};

    LiveOptions sync;  // bounds hold from the start
    cells.push_back({cfg, "synchronous", sync});

    LiveOptions async;  // 2 ms of slow, jittery pre-GST network
    async.gst = std::chrono::microseconds{2000};
    cells.push_back({cfg, "GST @ 2 ms", async});

    LiveOptions crash;  // a replica dies mid-log
    crash.crashes.push_back(CrashInjection{0, 3, false});
    cells.push_back({cfg, "crash p0 @ r3", crash});
  }

  bool ok = true;
  long runs = 0;
  bench::Stopwatch watch;
  Table table({"n", "t", "scenario", "all committed", "trace valid"});
  for (const Cell& cell : cells) {
    const bench::LiveRsmOutcome out = run_cell(cell);
    ++runs;
    ok &= out.committed && out.trace_valid;
    table.add(cell.cfg.n, cell.cfg.t, cell.scenario,
              bench::check_mark(out.committed),
              bench::check_mark(out.trace_valid));
    const double throughput =
        out.seconds > 0 ? static_cast<double>(kSlots) / out.seconds : 0;
    std::fprintf(stderr,
                 "X5 n=%d %-14s %2d rounds (gst round %d), %6.0f commits/s, "
                 "commit latency p50 %7.0f us  p99 %7.0f us\n",
                 cell.cfg.n, cell.scenario.c_str(), out.rounds, out.gst_round,
                 throughput, bench::percentile_of(out.latencies_us, 0.50),
                 bench::percentile_of(out.latencies_us, 0.99));
  }
  table.print(std::cout, "X5: 8-command log, A_{t+2}+ff slots, window 2");
  std::cout
      << "Reading: the indulgent RSM keeps committing over a real\n"
         "asynchronous network — pre-GST rounds stretch (wall-clock price)\n"
         "but never break safety, and every live trace passes the same\n"
         "model validator as the lockstep kernel's runs.\n\n";
  std::cout << (ok ? "X5 OK.\n" : "X5 FAILED.\n");
  watch.report("X5", runs, 1);
  return ok ? 0 : 1;
}
