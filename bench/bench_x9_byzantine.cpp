// X9 — the price of authentication under Byzantine lies (extension).
//
// ISSUE 10's evidence bench: A_{t+2}^auth runs on the live runtime while
// budgeted liars (b < n/3) equivocate, lie, forge, replay, and go silent
// against it.  Two questions, one per part:
//
//   Part A  single-shot decision rounds, clean vs each lie class vs a
//           mixed adversary, n in {4, 7}, b in {0, 1, 2}: how many rounds
//           does each lie class cost the authenticated algorithm?  Every
//           cell must stay safe — honest processes decide one real
//           proposal, in agreement, with a validator-clean trace that
//           excuses exactly the declared liars.
//   Part B  the RSM grid under fire: slot-windowed A_{t+2}^auth commits a
//           full log while a mixed adversary lies through the first
//           window.  Wall-clock commit latency (p50/p99) prices the
//           conviction/echo machinery against the clean baseline.
//
// stdout is the deterministic correctness table (decision rounds and
// gates); every wall-clock number goes to stderr and to the persisted
// BENCH_x9_byzantine.json artifact.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/at2_auth.hpp"
#include "live_rsm_cell.hpp"

namespace indulgence {
namespace {

using namespace std::chrono_literals;

constexpr int kSlots = 6;
constexpr Round kWindow = 2;

/// The b highest process ids lie; honest low ids keep the quorum honest.
ProcessSet liars_for(int n, int b) {
  ProcessSet liars;
  for (int i = 0; i < b; ++i) liars.insert(n - 1 - i);
  return liars;
}

/// One scenario = the rounds-indexed plan every liar follows.  Lies land
/// in the first rounds so they hit the first view (single-shot) and the
/// first slot window (RSM) — the regime where they can still change the
/// outcome.
std::vector<ByzantineInjection> plan_for(const std::string& scenario,
                                         const ProcessSet& liars) {
  std::vector<ByzantineInjection> plan;
  auto add = [&plan](Round round, ByzantineEvent e) {
    plan.push_back(ByzantineInjection{round, e});
  };
  for (ProcessId liar : liars) {
    if (scenario == "equivocate") {
      for (Round k = 1; k <= 2; ++k) {
        ByzantineEvent e;
        e.kind = LieKind::Equivocate;
        e.liar = liar;
        e.target = 0;
        e.value = -90 - liar;
        add(k, e);
      }
    } else if (scenario == "lie") {
      for (Round k = 1; k <= 2; ++k) {
        ByzantineEvent e;
        e.kind = LieKind::Lie;
        e.liar = liar;
        e.value = -80 - liar;
        add(k, e);
      }
    } else if (scenario == "forge") {
      for (Round k = 1; k <= 2; ++k) {
        ByzantineEvent e;
        e.kind = LieKind::Forge;
        e.liar = liar;
        e.forged = 0;
        e.value = -70 - liar;
        e.has_value = true;
        add(k, e);
      }
    } else if (scenario == "replay") {
      for (Round k = 2; k <= 3; ++k) {
        ByzantineEvent e;
        e.kind = LieKind::Replay;
        e.liar = liar;
        e.replay_round = 1;
        add(k, e);
      }
    } else if (scenario == "silence") {
      for (Round k = 1; k <= 2; ++k) {
        ByzantineEvent e;
        e.kind = LieKind::Silence;
        e.liar = liar;
        add(k, e);
      }
    } else if (scenario == "mixed") {
      ByzantineEvent equivocate;
      equivocate.kind = LieKind::Equivocate;
      equivocate.liar = liar;
      equivocate.target = 0;
      equivocate.value = -60 - liar;
      add(1, equivocate);
      ByzantineEvent lie;
      lie.kind = LieKind::Lie;
      lie.liar = liar;
      lie.value = -50 - liar;
      add(2, lie);
      ByzantineEvent forge;
      forge.kind = LieKind::Forge;
      forge.liar = liar;
      forge.forged = 0;
      forge.value = -40 - liar;
      forge.has_value = true;
      add(3, forge);
      ByzantineEvent replay;
      replay.kind = LieKind::Replay;
      replay.liar = liar;
      replay.replay_round = 1;
      add(4, replay);
      ByzantineEvent silence;
      silence.kind = LieKind::Silence;
      silence.liar = liar;
      silence.target = 0;
      add(5, silence);
    }
  }
  return plan;
}

/// Honest-side consensus check: every non-liar process decided the same
/// value, and that value was really proposed.  Liars are exempt — the
/// model makes no promises about them.
bool honest_consensus(const RunResult& r, const SystemConfig& cfg,
                      const ProcessSet& liars) {
  const std::vector<Value> proposals = distinct_proposals(cfg.n);
  std::optional<Value> decided;
  ProcessSet deciders;
  for (const DecisionRecord& d : r.trace.decisions()) {
    if (liars.contains(d.pid)) continue;
    if (!decided) decided = d.value;
    if (*decided != d.value) return false;
    deciders.insert(d.pid);
  }
  if (!decided ||
      std::find(proposals.begin(), proposals.end(), *decided) ==
          proposals.end()) {
    return false;
  }
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    if (liars.contains(pid) || r.trace.crashed().contains(pid)) continue;
    if (!deciders.contains(pid)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Part A: single-shot decision rounds per lie class.
// ---------------------------------------------------------------------------

struct ShotCell {
  SystemConfig cfg;
  int b = 0;
  std::string scenario;
};

struct ShotOutcome {
  Round decision_round = 0;
  Round rounds = 0;
  bool trace_valid = false;
  bool honest_ok = false;
  bool budget_stamped = false;
  double seconds = 0;
};

ShotOutcome run_shot(const ShotCell& cell) {
  const ProcessSet liars = liars_for(cell.cfg.n, cell.b);
  LiveOptions options;
  // A generous full-set window: every clean round closes on the full live
  // copy set long before the timer, so the decision rounds below are a
  // function of the delivered sets — deterministic even on a loaded box.
  options.quorum_grace = 20ms;
  options.seed = 9;
  options.byzantine = plan_for(cell.scenario, liars);
  options.byzantine_budget = cell.b;

  bench::Stopwatch watch;
  const RunResult r = run_live(cell.cfg, options, at2_auth_factory(),
                               distinct_proposals(cell.cfg.n));
  ShotOutcome out;
  out.seconds = watch.seconds();
  out.decision_round = r.global_decision_round.value_or(0);
  out.rounds = r.trace.rounds_executed();
  out.trace_valid = r.validation.ok();
  out.honest_ok = honest_consensus(r, cell.cfg, liars);
  out.budget_stamped = r.trace.byzantine_budget() == cell.b &&
                       r.trace.byzantine() == liars;
  return out;
}

// ---------------------------------------------------------------------------
// Part B: the RSM grid under a mixed adversary.
// ---------------------------------------------------------------------------

/// Liar replicas run the honest code (output mutation), so they are held
/// to the same commit bar as everyone else.
bench::LiveRsmOutcome run_rsm_cell(const SystemConfig& cfg, int b,
                                   const std::string& scenario) {
  const ProcessSet liars = liars_for(cfg.n, b);
  LiveOptions options;
  options.quorum_grace = 20ms;
  options.seed = 9;
  options.byzantine = plan_for(scenario, liars);
  options.byzantine_budget = b;
  return bench::run_live_rsm(cfg, kSlots, kWindow, at2_auth_factory(),
                             options);
}

}  // namespace
}  // namespace indulgence

int main() {
  using namespace indulgence;
  bench::print_header(
      "X9 — A_{t+2}^auth under Byzantine lies",
      "decision rounds + RSM commit latency, clean vs each lie class vs "
      "mixed; every trace re-validated with the liars excused");

  const std::vector<std::string> kScenarios = {
      "clean", "equivocate", "lie", "forge", "replay", "silence", "mixed"};

  bench::JsonWriter json(bench::artifact_path("BENCH_x9_byzantine.json"));
  json.begin_object();
  json.key("bench").value("x9_byzantine");
  bool all_ok = true;
  long runs = 0;
  bench::Stopwatch watch;

  // --- Part A: single-shot decision rounds ------------------------------
  bool auth_survives = true;
  Round clean_rounds_n7 = 0;
  Round mixed_b2_rounds_n7 = 0;
  {
    Table table({"n", "t", "b", "scenario", "decision round", "trace valid",
                 "honest safe", "budget"});
    json.key("single_shot").begin_array();
    for (const SystemConfig cfg :
         {SystemConfig{.n = 4, .t = 1}, SystemConfig{.n = 7, .t = 2}}) {
      const int max_b = (cfg.n - 1) / 3;  // 3b < n
      for (int b = 0; b <= max_b; ++b) {
        for (const std::string& scenario : kScenarios) {
          if ((b == 0) != (scenario == "clean")) continue;
          const ShotCell cell{cfg, b, scenario};
          const ShotOutcome out = run_shot(cell);
          ++runs;
          const bool gates = out.trace_valid && out.honest_ok &&
                             out.budget_stamped && out.decision_round > 0;
          auth_survives = auth_survives && gates;
          if (cfg.n == 7 && scenario == "clean") {
            clean_rounds_n7 = out.decision_round;
          }
          if (cfg.n == 7 && b == 2 && scenario == "mixed") {
            mixed_b2_rounds_n7 = out.decision_round;
          }
          table.add(cfg.n, cfg.t, b, scenario, out.decision_round,
                    bench::check_mark(out.trace_valid),
                    bench::check_mark(out.honest_ok),
                    bench::check_mark(out.budget_stamped));
          json.begin_object();
          json.key("n").value(cfg.n);
          json.key("t").value(cfg.t);
          json.key("b").value(b);
          json.key("scenario").value(scenario);
          json.key("decision_round").value(
              static_cast<long>(out.decision_round));
          json.key("rounds").value(static_cast<long>(out.rounds));
          json.key("seconds").value(out.seconds);
          json.key("trace_valid").value(out.trace_valid);
          json.key("honest_ok").value(out.honest_ok);
          json.key("gates_ok").value(gates);
          json.end_object();
          std::fprintf(stderr,
                       "X9a n=%d b=%d %-10s decided@%d in %6.1f ms\n", cfg.n,
                       b, scenario.c_str(), out.decision_round,
                       out.seconds * 1e3);
        }
      }
    }
    json.end_array();
    all_ok = all_ok && auth_survives;
    table.print(std::cout,
                "X9a: single-shot A_{t+2}^auth decision rounds per lie "
                "class (b liars, 3b < n)");
  }

  // --- Part B: the RSM grid under fire ----------------------------------
  bool rsm_commits = true;
  double mixed_rsm_seconds_n7 = 0;
  {
    Table table({"n", "t", "b", "scenario", "all committed", "trace valid"});
    json.key("rsm").begin_array();
    struct Cell {
      SystemConfig cfg;
      int b;
      std::string scenario;
    };
    const std::vector<Cell> cells = {
        {SystemConfig{.n = 4, .t = 1}, 0, "clean"},
        {SystemConfig{.n = 4, .t = 1}, 1, "mixed"},
        {SystemConfig{.n = 7, .t = 2}, 0, "clean"},
        {SystemConfig{.n = 7, .t = 2}, 2, "mixed"},
    };
    for (const Cell& cell : cells) {
      const bench::LiveRsmOutcome out =
          run_rsm_cell(cell.cfg, cell.b, cell.scenario);
      ++runs;
      const bool gates = out.committed && out.trace_valid;
      rsm_commits = rsm_commits && gates;
      if (cell.cfg.n == 7 && cell.b == 2) {
        mixed_rsm_seconds_n7 = out.seconds;
      }
      table.add(cell.cfg.n, cell.cfg.t, cell.b, cell.scenario,
                bench::check_mark(out.committed),
                bench::check_mark(out.trace_valid));
      json.begin_object();
      json.key("n").value(cell.cfg.n);
      json.key("t").value(cell.cfg.t);
      json.key("b").value(cell.b);
      json.key("scenario").value(cell.scenario);
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
                   "X9b n=%d b=%d %-6s %3d rounds, %7.1f ms wall, commit "
                   "p50 %7.0f us  p99 %7.0f us\n",
                   cell.cfg.n, cell.b, cell.scenario.c_str(), out.rounds,
                   out.seconds * 1e3,
                   bench::percentile_of(out.latencies_us, 0.50),
                   bench::percentile_of(out.latencies_us, 0.99));
    }
    json.end_array();
    all_ok = all_ok && rsm_commits;
    table.print(std::cout,
                "X9b: 6-command RSM over A_{t+2}^auth, window 2, mixed "
                "adversary through the first slots");
  }

  json.key("gates").begin_object();
  json.key("auth_survives_all_cells").value(auth_survives);
  json.key("rsm_commits_under_lies").value(rsm_commits);
  json.key("all_gates_ok").value(all_ok);
  json.end_object();
  json.key("clean_n7_decision_round").value(
      static_cast<long>(clean_rounds_n7));
  json.key("mixed_n7_b2_decision_round").value(
      static_cast<long>(mixed_b2_rounds_n7));
  json.key("mixed_n7_b2_rsm_seconds").value(mixed_rsm_seconds_n7);
  json.end_object();

  // Trajectory vs the previous PR's checked-in baseline (absent: skip).
  const std::string baseline = std::string(INDULGENCE_BENCH_BASELINE_DIR) +
                               "/BENCH_x9_byzantine.pr10.json";
  const double base_secs =
      bench::scan_json_number(baseline, "mixed_n7_b2_rsm_seconds", 0);
  if (base_secs > 0) {
    std::fprintf(stderr,
                 "X9 trajectory: mixed n=7 b=2 RSM %.1f ms now vs %.1f ms "
                 "at baseline\n",
                 mixed_rsm_seconds_n7 * 1e3, base_secs * 1e3);
  }

  std::cout
      << "\nReading: authentication is the antidote the paper's indulgent\n"
         "model never needed — against crash faults the lies cannot even be\n"
         "expressed.  Give the adversary a voice (b > 0) and every\n"
         "crash-only algorithm in the suite has a breaking repro in\n"
         "tests/corpus, while A_{t+2}^auth pays a bounded number of extra\n"
         "rounds for its tags, echo certificates, and convictions -- the\n"
         "inherent price of indulgence toward liars.\n\n";
  std::cout << (all_ok ? "X9 OK.\n" : "X9 FAILED.\n");
  watch.report("X9", runs, 1);
  return all_ok ? 0 : 1;
}
