// X8 — round synchronizers on the live runtime (extension).
//
// The round driver's close policy is pluggable (src/net/synchronizer.hpp):
//
//   lockstep   n-t quorum + grace timer + round floor (the seed behavior)
//   pacemaker  the round-k coordinator broadcasts a round-advance pulse at
//              quorum; followers close on pulse-or-timeout (Naor-Keidar
//              style clock synchronization, message-paced)
//   faststep   rounds hold for the FULL echo set so A_{t+2}'s failure-free
//              optimization decides one message delay earlier; falls back
//              to the lockstep gate on timeout (Ryabinin-Gotsman-Sutra
//              style fast path)
//
// X8 measures what each policy buys:
//
//   Part A  single-shot consensus, failure-free: decision rounds of the
//           plain A_{t+2} slow path under lockstep vs the failure-free-
//           optimized fast path under faststep.  Deterministic -> stdout.
//   Part B  the X5-style 8-command RSM grid, n in {3, 5} x {clean,
//           GST @ 2 ms, crash p0 @ r3} x all three synchronizers, with a
//           uniform 400 us round floor.  The floor paces only policies
//           that honor it (lockstep), so the clean cells isolate the
//           pacemaker's wall-clock advantage: message-paced rounds vs
//           timer-paced rounds at identical decision rounds.
//   Part C  transient state corruption injected into the pacemaker and
//           fast-path soft state (pulse flags, grace timers); the runs
//           must still commit with validator-clean traces, because the
//           driver's n-t quorum floor is enforced before any synchronizer
//           is consulted.
//
// stdout is the deterministic correctness table; every wall-clock number
// goes to stderr and to the persisted BENCH_x8_sync.json artifact.

#include <cstdio>
#include <string>
#include <vector>

#include "live_rsm_cell.hpp"
#include "net/synchronizer.hpp"

namespace indulgence {
namespace {

using namespace std::chrono_literals;

constexpr int kSlots = 8;
constexpr Round kWindow = 2;

// ---------------------------------------------------------------------------
// Part A: single-shot decision rounds, slow path vs fast path.
// ---------------------------------------------------------------------------

struct FastCell {
  int n = 0;
  int t = 0;
  Round slow_rounds = 0;  ///< plain A_{t+2}, lockstep
  Round fast_rounds = 0;  ///< A_{t+2}+ff, faststep
  bool valid = false;
  bool gates_ok = false;
};

FastCell run_fast_cell(int n) {
  FastCell cell;
  cell.n = n;
  cell.t = (n - 1) / 2;
  const SystemConfig cfg{.n = n, .t = cell.t};

  // A generous full-set window on both sides: in a clean in-process run
  // every round closes on the full set long before the timer, so the
  // decision rounds below are deterministic even on a loaded box.
  LiveOptions slow_options;
  slow_options.quorum_grace = 20ms;
  slow_options.synchronizer = SyncKind::Lockstep;
  const RunResult slow = run_live(cfg, slow_options,
                                  at2_factory(hurfin_raynal_factory()),
                                  distinct_proposals(n));

  At2Options ff;
  ff.failure_free_opt = true;
  LiveOptions fast_options;
  fast_options.quorum_grace = 20ms;
  fast_options.synchronizer = SyncKind::FastStep;
  const RunResult fast = run_live(cfg, fast_options,
                                  at2_factory(hurfin_raynal_factory(), ff),
                                  distinct_proposals(n));

  cell.valid = slow.ok() && fast.ok();
  cell.slow_rounds = slow.global_decision_round.value_or(0);
  cell.fast_rounds = fast.global_decision_round.value_or(0);
  cell.gates_ok = cell.valid && cell.fast_rounds > 0 &&
                  cell.fast_rounds < cell.slow_rounds;
  return cell;
}

// ---------------------------------------------------------------------------
// Part B: the RSM grid across synchronizers.
// ---------------------------------------------------------------------------

struct GridCell {
  SystemConfig cfg;
  std::string scenario;
  SyncKind sync = SyncKind::Lockstep;
  LiveOptions options;
};

bench::LiveRsmOutcome run_grid_cell(const GridCell& cell) {
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
      "X8 — round synchronizers: lockstep vs pacemaker vs fast path",
      "decision rounds + wall-clock commit latency per close policy; "
      "every trace re-validated");

  bench::JsonWriter json(bench::artifact_path("BENCH_x8_sync.json"));
  json.begin_object();
  json.key("bench").value("x8_sync");
  bool all_ok = true;
  long runs = 0;
  bench::Stopwatch watch;

  // --- Part A: fast-path decision rounds -------------------------------
  bool fast_fewer_rounds = true;
  {
    Table table({"n", "t", "slow rounds (A_t+2, lockstep)",
                 "fast rounds (+ff, faststep)", "gates"});
    json.key("fast_path").begin_array();
    for (int n : {3, 5}) {
      const FastCell cell = run_fast_cell(n);
      runs += 2;
      fast_fewer_rounds = fast_fewer_rounds && cell.gates_ok;
      table.add(cell.n, cell.t, cell.slow_rounds, cell.fast_rounds,
                bench::check_mark(cell.gates_ok));
      json.begin_object();
      json.key("n").value(cell.n);
      json.key("t").value(cell.t);
      json.key("slow_rounds").value(static_cast<long>(cell.slow_rounds));
      json.key("fast_rounds").value(static_cast<long>(cell.fast_rounds));
      json.key("gates_ok").value(cell.gates_ok);
      json.end_object();
    }
    json.end_array();
    all_ok = all_ok && fast_fewer_rounds;
    table.print(std::cout,
                "X8a: failure-free single-shot decision rounds "
                "(fast path decides one message delay earlier)");
  }

  // --- Part B: the RSM grid --------------------------------------------
  std::vector<GridCell> cells;
  for (int n : {3, 5}) {
    const SystemConfig cfg{.n = n, .t = (n - 1) / 2};
    for (const SyncKind sync :
         {SyncKind::Lockstep, SyncKind::Pacemaker, SyncKind::FastStep}) {
      // A uniform 400 us round floor: policies that honor it (lockstep)
      // are timer-paced, message-paced policies run at network speed.
      LiveOptions base;
      base.round_floor = 400us;
      base.synchronizer = sync;
      cells.push_back({cfg, "clean", sync, base});

      LiveOptions async = base;
      async.gst = std::chrono::microseconds{2000};
      cells.push_back({cfg, "GST @ 2 ms", sync, async});

      LiveOptions crash = base;
      crash.crashes.push_back(CrashInjection{0, 3, false});
      cells.push_back({cfg, "crash p0 @ r3", sync, crash});
    }
  }

  double clean_seconds[2][3] = {};  // [n index][sync index], clean cells
  Table grid_table(
      {"n", "t", "scenario", "sync", "all committed", "trace valid"});
  json.key("grid").begin_array();
  for (const GridCell& cell : cells) {
    const bench::LiveRsmOutcome out = run_grid_cell(cell);
    ++runs;
    const bool gates = out.committed && out.trace_valid;
    all_ok = all_ok && gates;
    if (cell.scenario == "clean") {
      clean_seconds[cell.cfg.n == 3 ? 0 : 1][static_cast<int>(cell.sync)] =
          out.seconds;
    }
    grid_table.add(cell.cfg.n, cell.cfg.t, cell.scenario,
                   to_string(cell.sync), bench::check_mark(out.committed),
                   bench::check_mark(out.trace_valid));
    json.begin_object();
    json.key("n").value(cell.cfg.n);
    json.key("t").value(cell.cfg.t);
    json.key("scenario").value(cell.scenario);
    json.key("sync").value(to_string(cell.sync));
    json.key("committed").value(out.committed);
    json.key("trace_valid").value(out.trace_valid);
    json.key("rounds").value(static_cast<long>(out.rounds));
    json.key("seconds").value(out.seconds);
    json.key("commit_p50_us").value(
        bench::percentile_of(out.latencies_us, 0.50));
    json.key("commit_p99_us").value(
        bench::percentile_of(out.latencies_us, 0.99));
    json.key("gates_ok").value(gates);
    json.end_object();
    std::fprintf(stderr,
                 "X8 n=%d %-14s %-9s %3d rounds, %7.1f ms wall, commit "
                 "p50 %7.0f us  p99 %7.0f us\n",
                 cell.cfg.n, cell.scenario.c_str(), to_string(cell.sync),
                 out.rounds,
                 out.seconds * 1e3,
                 bench::percentile_of(out.latencies_us, 0.50),
                 bench::percentile_of(out.latencies_us, 0.99));
  }
  json.end_array();
  grid_table.print(std::cout,
                   "X8b: 8-command RSM, A_{t+2}+ff slots, window 2, "
                   "400 us round floor");

  // The pacemaker's clean-cell win: identical decision rounds, but its
  // rounds close on the coordinator pulse instead of waiting out the
  // floor, so its wall clock tracks the network, not the timer.
  const bool pace_n3 = clean_seconds[0][1] > 0 &&
                       clean_seconds[0][1] < clean_seconds[0][0];
  const bool pace_n5 = clean_seconds[1][1] > 0 &&
                       clean_seconds[1][1] < clean_seconds[1][0];
  all_ok = all_ok && pace_n3 && pace_n5;
  for (int i = 0; i < 2; ++i) {
    std::fprintf(stderr,
                 "X8 clean n=%d wall: lockstep %.1f ms, pacemaker %.1f ms, "
                 "faststep %.1f ms\n",
                 i == 0 ? 3 : 5, clean_seconds[i][0] * 1e3,
                 clean_seconds[i][1] * 1e3, clean_seconds[i][2] * 1e3);
  }

  // --- Part C: transient soft-state corruption -------------------------
  bool corruption_recovered = true;
  {
    Table table({"n", "sync", "corrupted rounds", "all committed",
                 "trace valid"});
    json.key("corruption").begin_array();
    for (const SyncKind sync : {SyncKind::Pacemaker, SyncKind::FastStep}) {
      GridCell cell;
      cell.cfg = SystemConfig{.n = 3, .t = 1};
      cell.scenario = "corrupt p1 r1-3";
      cell.sync = sync;
      cell.options.round_floor = 400us;
      cell.options.synchronizer = sync;
      // Flip every soft-state bit of p1's synchronizer in rounds 1..3:
      // pulse flags, grace timers, the fast/slow mode bit.  The quorum
      // floor is enforced by the driver before the policy is consulted,
      // so the run must recover and the trace must stay valid.
      for (Round k = 1; k <= 3; ++k) {
        cell.options.sync_corruptions.push_back(SyncCorruption{1, k, 7});
      }
      const bench::LiveRsmOutcome out = run_grid_cell(cell);
      ++runs;
      const bool gates = out.committed && out.trace_valid;
      corruption_recovered = corruption_recovered && gates;
      table.add(cell.cfg.n, to_string(sync), "1..3 (bits 111)",
                bench::check_mark(out.committed),
                bench::check_mark(out.trace_valid));
      json.begin_object();
      json.key("n").value(cell.cfg.n);
      json.key("t").value(cell.cfg.t);
      json.key("sync").value(to_string(sync));
      json.key("committed").value(out.committed);
      json.key("trace_valid").value(out.trace_valid);
      json.key("gates_ok").value(gates);
      json.end_object();
    }
    json.end_array();
    all_ok = all_ok && corruption_recovered;
    table.print(std::cout,
                "X8c: recovery from injected synchronizer state corruption");
  }

  json.key("gates").begin_object();
  json.key("fast_fewer_rounds").value(fast_fewer_rounds);
  json.key("pacemaker_beats_lockstep_clean_n3").value(pace_n3);
  json.key("pacemaker_beats_lockstep_clean_n5").value(pace_n5);
  json.key("corruption_recovered").value(corruption_recovered);
  json.key("all_gates_ok").value(all_ok);
  json.end_object();
  json.key("pacemaker_clean_n3_seconds").value(clean_seconds[0][1]);
  json.end_object();

  // Trajectory vs the previous PR's checked-in baseline (absent: skip).
  const std::string baseline = std::string(INDULGENCE_BENCH_BASELINE_DIR) +
                               "/BENCH_x8_sync.pr9.json";
  const double base_secs =
      bench::scan_json_number(baseline, "pacemaker_clean_n3_seconds", 0);
  if (base_secs > 0) {
    std::fprintf(stderr,
                 "X8 trajectory: pacemaker clean n=3 %.1f ms now vs %.1f ms "
                 "at baseline\n",
                 clean_seconds[0][1] * 1e3, base_secs * 1e3);
  }

  std::cout
      << "\nReading: the close policy is the price dial.  The lockstep gate\n"
         "pays the round floor every round; the pacemaker closes rounds on\n"
         "the coordinator's pulse and runs at network speed with the same\n"
         "decision rounds; the fast path spends its waiting on full echo\n"
         "sets and wins a whole message delay when no one is faulty --\n"
         "falling back to the indulgent slow path the moment anyone is.\n\n";
  std::cout << (all_ok ? "X8 OK.\n" : "X8 FAILED.\n");
  watch.report("X8", runs, 1);
  return all_ok ? 0 : 1;
}
