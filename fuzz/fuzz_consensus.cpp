// fuzz_consensus: the schedule-fuzzing driver.
//
// Sweeps every registered algorithm (or one, with --algo) through `budget`
// seeded random model-valid schedules on the parallel campaign engine,
// judges each run with the target's violation predicate, and minimizes the
// first find with the delta-debugging shrinker.  The paper's verdicts are
// the oracle: the seven real algorithms must survive every model-valid run,
// and the deliberately broken variants (X1 ablations, E2's truncated
// A_{t+1}) must be caught.  Exit status 0 iff every target matched its
// expected verdict — so the CI smoke job is just `fuzz_consensus --budget N`.
// An all-target sweep lists a target as skipped only when its algorithm
// rejects (n, t) outright (A_{f+2}, A_{t+2}^auth); any other error ends the
// run with status 2.
//
// Repro workflow:
//   fuzz_consensus --algo at2-fscheck --seed 7 --out repros/
//       writes the find as the repro that reproduces it (fuzz/fuzzer.hpp),
//       repros/at2-fscheck.sched; live finds go to live-<target>.sched
//   fuzz_consensus --replay repros/at2-fscheck.sched
//       re-judges a single repro file (exit 0 iff it still reproduces)
//   fuzz_consensus --corpus tests/corpus
//       replays every *.sched in a directory (the regression corpus)
//   fuzz_consensus --live --seed 7 --budget 25
//       randomized LiveOptions sweeps over real threads (see --help)
//
// Table output goes to stdout in a stable, diffable format; timing and
// timing-dependent detail go to stderr (same convention as the bench
// binaries) — in live mode the stdout table is bit-identical per seed.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "fuzz/cli.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/live_fuzzer.hpp"
#include "fuzz/targets.hpp"
#include "net/synchronizer.hpp"
#include "sim/schedule_io.hpp"

namespace {

using namespace indulgence;

int list_targets() {
  Table table({"target", "model", "expect", "check", "summary"});
  for (const FuzzTarget& t : fuzz_targets()) {
    table.add(t.name, t.model == Model::ES ? "ES" : "SCS",
              t.expect_safe ? "safe" : "broken", t.check, t.summary);
  }
  table.print(std::cout, "Registered fuzz targets");
  return 0;
}

void print_verdicts(const std::vector<ReplayVerdict>& verdicts,
                    const std::string& title) {
  Table table({"entry", "expected", "observed", "valid", "ok", "detail"});
  for (const ReplayVerdict& v : verdicts) {
    table.add(v.name,
              v.expect_invalid ? "invalid"
                               : v.expect_violation ? "violation" : "ok",
              !v.model_valid ? "invalid"
                             : v.violation ? "violation" : "ok",
              v.model_valid, v.matches(),
              v.detail.empty() ? "-" : v.detail);
  }
  table.print(std::cout, title);
}

int replay_one(const std::string& path) {
  const ReproCase repro = load_repro_file(path);
  const ReplayVerdict verdict =
      replay_repro(std::filesystem::path(path).filename().string(), repro);
  print_verdicts({verdict}, "Repro replay");
  return verdict.matches() ? 0 : 1;
}

int replay_directory(const std::string& dir) {
  const auto corpus = load_corpus_dir(dir);
  if (corpus.empty()) {
    std::cerr << "fuzz_consensus: no *.sched files in " << dir << "\n";
    return 1;
  }
  const auto verdicts = replay_corpus(corpus, default_campaign());
  print_verdicts(verdicts, "Corpus replay: " + dir);
  bool all_ok = true;
  for (const ReplayVerdict& v : verdicts) all_ok = all_ok && v.matches();
  std::cout << "\n"
            << (all_ok ? "all entries reproduce" : "STALE ENTRIES — see 'ok'")
            << " (" << verdicts.size() << " files)\n";
  return all_ok ? 0 : 1;
}

void write_repro(const std::string& dir, const std::string& file_name,
                 const ReproCase& repro) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + file_name;
  std::ofstream out(path);
  out << print_repro(repro);
  if (!out) {
    std::cerr << "fuzz_consensus: failed to write " << path << "\n";
    std::exit(1);
  }
  std::cerr << "wrote " << path << "\n";
}

/// The targets of a sweep: the one --algo names, or every registered
/// target less the `byz_only` ones when `drop_byz_only`.  Empty, after a
/// diagnostic, when --algo names no target.
std::vector<const FuzzTarget*> sweep_targets(const DriverOptions& opts,
                                             bool drop_byz_only) {
  std::vector<const FuzzTarget*> targets;
  if (opts.algo != "all") {
    if (const FuzzTarget* t = find_fuzz_target(opts.algo)) {
      targets.push_back(t);
    } else {
      std::cerr << "fuzz_consensus: unknown target '" << opts.algo
                << "' (see --list)\n";
    }
    return targets;
  }
  for (const FuzzTarget& t : fuzz_targets()) {
    if (!(drop_byz_only && t.byz_only)) targets.push_back(&t);
  }
  return targets;
}

/// The skip rule of an all-target sweep: a target is skipped only when its
/// algorithm rejects (n, t) outright, and the returned text is its row's
/// verdict.  With --algo nothing is skipped, and the sweep's own throw ends
/// the run with status 2.
std::optional<std::string> skip_reason(const DriverOptions& opts,
                                       const FuzzTarget& target,
                                       const SystemConfig& config) {
  if (opts.algo != "all") return std::nullopt;
  const std::optional<std::string> why = rejection(target, config);
  if (!why) return std::nullopt;
  return "skipped: " + *why;
}

std::optional<std::chrono::steady_clock::time_point> wall_deadline(
    const DriverOptions& opts) {
  if (opts.wall_secs <= 0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::microseconds{
             static_cast<long long>(opts.wall_secs * 1e6)};
}

/// Reports a find on stderr and, with --out, writes its repro.
void emit_find(const DriverOptions& opts, const FuzzFinding& find) {
  const std::string& name = find.repro.algo;
  std::cerr << name << ": run " << find.run_index << " -> ";
  if (opts.live) std::cerr << "[" << to_string(find.kind) << "] ";
  std::cerr << find.description << " (shrink " << find.shrink_stats.accepted
            << "/" << find.shrink_stats.attempts << " reductions)\n";
  if (opts.out_dir) {
    write_repro(*opts.out_dir, (opts.live ? "live-" : "") + name + ".sched",
                find.repro);
  }
}

int fuzz(const DriverOptions& opts) {
  const std::vector<const FuzzTarget*> targets =
      sweep_targets(opts, /*drop_byz_only=*/opts.byz == 0);
  if (targets.empty()) return 1;
  if (targets.front()->byz_only && opts.byz == 0) {
    std::cerr << "fuzz_consensus: target '" << opts.algo
              << "' only runs under --byz (it has no crash-only verdict)\n";
    return 1;
  }

  FuzzOptions fuzz_options;
  fuzz_options.seed = opts.seed;
  fuzz_options.budget = opts.budget;
  fuzz_options.shrink = opts.shrink;
  fuzz_options.gen.byz = opts.byz;
  fuzz_options.campaign = default_campaign();
  fuzz_options.deadline = wall_deadline(opts);

  const SystemConfig config{.n = opts.n, .t = opts.t};
  config.validate();
  Table table({"target", "model", "expect", "runs", "violations", "first",
               "shrunk-rounds", "verdict"});
  bool all_ok = true;
  bool any_cutoff = false;
  const auto start = std::chrono::steady_clock::now();
  long total_runs = 0;
  for (const FuzzTarget* target : targets) {
    if (auto reason = skip_reason(opts, *target, config)) {
      table.add(target->name, target->model == Model::ES ? "ES" : "SCS",
                target->expect_safe ? "safe" : "broken", 0L, 0L, "-", "-",
                *reason);
      continue;
    }
    const FuzzReport report = fuzz_target(*target, config, fuzz_options);
    total_runs += report.runs;
    const bool ok = report.as_expected();
    all_ok = all_ok && ok;
    any_cutoff = any_cutoff || report.wall_cutoff;
    const char* expect_label =
        report.expectation == ByzExpectation::Survives    ? "safe"
        : report.expectation == ByzExpectation::Breaks    ? "broken"
                                                          : "vulnerable";
    table.add(report.target, target->model == Model::ES ? "ES" : "SCS",
              expect_label, report.runs,
              report.violations,
              report.first ? std::to_string(report.first->run_index) : "-",
              report.first ? std::to_string(
                                 report.first->repro.schedule.planned_rounds())
                           : "-",
              ok ? "as expected" : "UNEXPECTED");
    if (report.first) emit_find(opts, *report.first);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  table.print(std::cout,
              "Schedule fuzz: n=" + std::to_string(opts.n) +
                  " t=" + std::to_string(opts.t) +
                  " seed=" + std::to_string(opts.seed) +
                  " budget=" + std::to_string(opts.budget) +
                  // Default titles stay byte-identical for existing seeds.
                  (opts.byz > 0 ? " byz=" + std::to_string(opts.byz) : ""));
  std::cout << "\n"
            << (all_ok ? "all targets matched the paper's verdict"
                       : "VERDICT MISMATCH — see table")
            << (any_cutoff ? " (wall-clock budget cut the sweep short)" : "")
            << "\n";
  std::cerr << "fuzz: " << total_runs << " runs in " << secs << " s (jobs="
            << fuzz_options.campaign.resolved_jobs() << ")\n";
  return all_ok ? 0 : 1;
}

/// Writes the deterministic live-corpus seed repros (tests/corpus/
/// regeneration recipe; the loss sample is byte-stable per machine class).
int write_samples(const std::string& dir) {
  for (const auto& [name, repro] :
       {live_loss_sample(), live_crash_partition_sample(),
        live_sharded_sample()}) {
    const ReplayVerdict verdict = replay_repro(name, repro);
    if (!verdict.matches()) {
      std::cerr << "fuzz_consensus: sample " << name
                << " does not replay to its own claim\n";
      return 1;
    }
    write_repro(dir, name, repro);
  }
  return 0;
}

int live_fuzz(const DriverOptions& opts) {
  const std::vector<const FuzzTarget*> targets =
      sweep_targets(opts, /*drop_byz_only=*/false);
  if (targets.empty()) return 1;

  LiveFuzzOptions live_options;
  live_options.seed = opts.seed;
  // Socket runs pay for real connect/reconnect cycles, so the default
  // budget is lower than the in-memory router's.
  live_options.budget = opts.budget_set ? opts.budget : (opts.socket ? 10 : 25);
  live_options.shrink = opts.shrink;
  live_options.campaign = default_campaign();
  live_options.socket = opts.socket;
  live_options.groups = opts.groups;
  // CLI validation guarantees the name parses.
  live_options.gen.synchronizer = *parse_sync_kind(opts.sync);
  live_options.deadline = wall_deadline(opts);

  const SystemConfig config{.n = opts.n, .t = opts.t};
  config.validate();
  // Only seed-derived and guaranteed-outcome columns: the stdout table is
  // bit-identical per (seed, budget) unless the wall clock cut the sweep
  // short.  Timing-dependent detail ("caught" counts, shrink stats) goes
  // to stderr.
  Table table({"target", "model", "expect", "runs", "lossy", "invalid",
               "findings", "first", "verdict"});
  bool all_ok = true;
  bool any_cutoff = false;
  const auto start = std::chrono::steady_clock::now();
  long total_runs = 0;
  long total_caught = 0;
  SocketCounters total_socket;
  for (const FuzzTarget* target : targets) {
    if (auto reason = skip_reason(opts, *target, config)) {
      table.add(target->name, target->model == Model::ES ? "ES" : "SCS",
                target->expect_safe ? "safe" : "broken", 0L, 0L, 0L, 0L, "-",
                *reason);
      continue;
    }
    const LiveFuzzReport report =
        live_fuzz_target(*target, config, live_options);
    total_runs += report.runs;
    total_caught += report.caught;
    total_socket += report.socket_counters;
    const bool ok = report.as_expected();
    all_ok = all_ok && ok;
    any_cutoff = any_cutoff || report.wall_cutoff;
    table.add(report.target, report.model == Model::ES ? "ES" : "SCS",
              report.expect_safe ? "safe" : "broken", report.runs,
              report.lossy_runs, report.flagged_invalid, report.findings,
              report.first ? std::to_string(report.first->run_index) : "-",
              ok ? "as expected" : "UNEXPECTED");
    if (report.caught > 0) {
      std::cerr << report.target << ": " << report.caught
                << " expected violations under live timing (caught)\n";
    }
    if (report.first) emit_find(opts, *report.first);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  table.print(std::cout,
              std::string(opts.socket ? "Socket fuzz" : "Live fuzz") +
                  ": n=" + std::to_string(opts.n) +
                  " t=" + std::to_string(opts.t) +
                  " seed=" + std::to_string(opts.seed) +
                  " budget=" + std::to_string(live_options.budget) +
                  (opts.groups > 1
                       ? " groups=" + std::to_string(opts.groups)
                       : "") +
                  // Default titles stay byte-identical for existing seeds.
                  (opts.sync != "lockstep" ? " sync=" + opts.sync : ""));
  std::cout << "\n"
            << (all_ok ? "all live runs matched expectations"
                       : "UNEXPECTED LIVE RESULTS — see table")
            << (any_cutoff ? " (wall-clock budget cut the sweep short)" : "")
            << "\n";
  std::cerr << "live fuzz: " << total_runs << " runs (" << total_caught
            << " caught) in " << secs << " s (jobs="
            << live_options.campaign.resolved_jobs() << ")\n";
  if (opts.socket) {
    // Timing-dependent (how much chaos actually fired varies run to run),
    // so stderr, like every other nondeterministic detail.
    std::cerr << "socket: " << total_socket.reconnects << " reconnects, "
              << total_socket.envelopes_resent << " resends, "
              << total_socket.injected_resets << " injected resets, "
              << total_socket.injected_stalls << " stalls, "
              << total_socket.injected_short_writes << " short writes, "
              << total_socket.injected_connect_failures
              << " connect failures, " << total_socket.injected_accept_closes
              << " accept closes\n";
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<DriverOptions> opts =
      parse_driver_args(argc, argv, std::cerr);
  if (!opts) return 2;
  if (opts->help) {
    driver_usage(std::cout);
    return 0;
  }
  try {
    if (opts->list) return list_targets();
    if (opts->replay_file) return replay_one(*opts->replay_file);
    if (opts->corpus_dir) return replay_directory(*opts->corpus_dir);
    if (opts->samples_dir) return write_samples(*opts->samples_dir);
    if (opts->live) return live_fuzz(*opts);
    return fuzz(*opts);
  } catch (const std::exception& e) {
    std::cerr << "fuzz_consensus: " << e.what() << "\n";
    return 2;
  }
}
