#include "fuzz/live_fuzzer.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "fuzz/cli.hpp"
#include "fuzz/generator.hpp"
#include "net/runtime.hpp"
#include "net/sharded_runtime.hpp"
#include "net/trace_export.hpp"
#include "sim/harness.hpp"

namespace indulgence {

namespace {

using Clock = std::chrono::steady_clock;

std::map<ProcessId, Round> decision_rounds(const RunTrace& trace) {
  std::map<ProcessId, Round> out;
  for (const DecisionRecord& d : trace.decisions()) {
    out.emplace(d.pid, d.round);  // first decision per process wins
  }
  return out;
}

std::string first_violation(const ValidationReport& report) {
  return report.violations.empty() ? "(no violation text)"
                                   : report.violations.front();
}

/// Everything one run contributes to the campaign reduce.
struct RunOutcome {
  bool lossy = false;
  bool flagged_invalid = false;
  bool caught = false;
  SocketCounters counters;
  std::optional<FuzzFinding> finding;  ///< its repro not yet claimed
};

/// Judges one group of a valid draw, in order: the merged trace must
/// validate, a target that owes safety must keep it, and the kernel replay
/// of the export must validate and decide in the same rounds.  `where`
/// prefixes every description, and `draw` names the draw in the
/// invalid-trace one.  Returns true when it recorded a finding.
bool judge_group(const FuzzTarget& target, const ViolationPredicate& violated,
                 long run_index, const std::vector<Value>& proposals,
                 const RunResult& live, const AlgorithmInstances& algorithms,
                 const std::string& where, const std::string& draw,
                 RunOutcome& outcome) {
  ReproCase repro = live_repro(target, proposals, live.trace);
  const RunResult replay = run_repro(target, repro);
  auto finding = [&](FindingKind kind, const std::string& description) {
    outcome.finding = FuzzFinding{.run_index = run_index,
                                  .kind = kind,
                                  .description = where + description,
                                  .repro = std::move(repro)};
    return true;
  };

  if (!live.validation.ok()) {
    return finding(FindingKind::InvalidTrace,
                   draw + " produced an invalid trace: " +
                       first_violation(live.validation));
  }
  if (auto what = violated(live, algorithms)) {
    if (target.expect_safe && target.model == Model::ES) {
      return finding(FindingKind::Violation, *what);
    }
    // SCS algorithms and the deliberately broken variants are EXPECTED to
    // crack under asynchronous timing — the paper's indulgence price.
    outcome.caught = true;
  }
  if (!replay.validation.ok()) {
    return finding(FindingKind::Divergence,
                   "live trace valid, but its kernel replay is not: " +
                       first_violation(replay.validation));
  }
  if (decision_rounds(replay.trace) != decision_rounds(live.trace)) {
    return finding(FindingKind::Divergence,
                   "kernel replay decision rounds differ from the live run");
  }
  return false;
}

RunOutcome judge_run(const FuzzTarget& target, const SystemConfig& config,
                     const ViolationPredicate& violated, std::uint64_t seed,
                     long run_index, const LiveGenOptions& gen) {
  const LiveRunPlan plan =
      live_fuzz_run_plan(target, config, seed, run_index, gen);
  RunOutcome outcome;
  outcome.lossy = plan.lossy;

  LiveRuntime runtime(config, plan.options);
  const RunResult live = runtime.run(target.factory, plan.proposals);

  if (!plan.lossy) {
    judge_group(target, violated, run_index, plan.proposals, live,
                runtime.algorithms(), "", "valid draw", outcome);
    return outcome;
  }
  ReproCase repro = live_repro(target, plan.proposals, live.trace);
  const bool replay_valid = run_repro(target, repro).validation.ok();
  outcome.flagged_invalid = !live.validation.ok();
  auto finding = [&](FindingKind kind, std::string description) {
    outcome.finding = FuzzFinding{.run_index = run_index,
                                  .kind = kind,
                                  .description = std::move(description),
                                  .repro = std::move(repro)};
  };
  if (runtime.dropped_copies() > 0 && live.validation.ok()) {
    finding(FindingKind::UnflaggedLoss,
            "dropped " + std::to_string(runtime.dropped_copies()) +
                " copies yet the validator accepted the trace");
  } else if (replay_valid != live.validation.ok()) {
    finding(FindingKind::Divergence,
            std::string("validity diverged: live ") +
                (live.validation.ok() ? "valid" : "invalid") +
                ", kernel replay " + (replay_valid ? "valid" : "invalid"));
  }
  return outcome;
}

/// The socket draw: G independent groups of the target over one shared
/// fabric, every group judged by the single-group oracle.  One group runs
/// the plan as drawn over n nodes.  With more, the chaos window hits the
/// links all groups share, so a demux bug (wrong mailbox, cross-group dedup
/// state, a group dying with another's seq) corrupts some group's merged
/// trace and surfaces as a normal finding.
RunOutcome judge_socket_run(const FuzzTarget& target,
                            const SystemConfig& config,
                            const ViolationPredicate& violated,
                            std::uint64_t seed, long run_index,
                            const LiveGenOptions& gen, int groups) {
  const LiveRunPlan plan =
      live_socket_run_plan(target, config, seed, run_index, gen);
  ShardedOptions sharded;
  sharded.num_nodes = config.n;
  sharded.num_groups = groups;
  sharded.config = config;
  sharded.live = plan.options;
  sharded.socket.seed = plan.options.seed;
  sharded.socket.chaos = plan.chaos;
  std::vector<std::vector<Value>> proposals{plan.proposals};
  if (groups > 1) {
    // A separate stream for the sharding-only draws, so adding them never
    // perturbs the single-group plan for the same (seed, run index).
    const std::uint64_t shard_seed =
        cell_seed("socket:" + target.name, config, seed) ^ fnv1a("sharded:");
    Rng shard_rng =
        Rng::for_stream(shard_seed, static_cast<std::uint64_t>(run_index));
    sharded.num_nodes += shard_rng.next_int(0, 1);
    sharded.live.crashes.clear();  // see LiveFuzzOptions::groups
    proposals.resize(static_cast<std::size_t>(groups));
    for (auto& per_group : proposals) {
      per_group = random_proposals(config, shard_rng);
    }
  }

  RunOutcome outcome;  // never lossy: the supervisors hold copies
  const ShardedResult result = run_sharded(
      sharded, [&](GroupId) { return target.factory; },
      [&](GroupId g) { return proposals[static_cast<std::size_t>(g)]; });
  outcome.counters = result.counters;

  const bool one = groups == 1;
  for (const auto& [g, group_outcome] : result.groups) {
    if (judge_group(target, violated, run_index,
                    proposals[static_cast<std::size_t>(g)],
                    group_outcome.result, group_outcome.algorithms,
                    one ? "" : "group " + std::to_string(g) + "/" +
                                   std::to_string(groups) + ": ",
                    one ? "valid draw" : "valid sharded draw", outcome)) {
      break;
    }
  }
  return outcome;
}

/// Lowest-run-index-wins monoid for the campaign reduce; the finding
/// carries its export because a live run cannot be regenerated later.
struct LiveCell {
  long runs = 0;
  long lossy_runs = 0;
  long flagged_invalid = 0;
  long caught = 0;
  long findings = 0;
  bool wall_cutoff = false;
  SocketCounters counters;
  std::optional<FuzzFinding> first;

  void merge(const LiveCell& other) {
    runs += other.runs;
    lossy_runs += other.lossy_runs;
    flagged_invalid += other.flagged_invalid;
    caught += other.caught;
    findings += other.findings;
    wall_cutoff = wall_cutoff || other.wall_cutoff;
    counters += other.counters;
    if (other.first &&
        (!first || other.first->run_index < first->run_index)) {
      first = other.first;
    }
  }
};

}  // namespace

ReproCase live_repro(const FuzzTarget& target, std::vector<Value> proposals,
                     const RunTrace& live) {
  ReproCase repro;
  repro.algo = target.name;
  if (target.model != Model::ES) repro.model = Model::ES;
  repro.max_rounds = std::max<Round>(live.rounds_executed(), 1);
  repro.proposals = std::move(proposals);
  repro.schedule = schedule_from_trace(live);
  return repro;
}

LiveRunPlan live_fuzz_run_plan(const FuzzTarget& target, SystemConfig config,
                               std::uint64_t seed, long run_index,
                               const LiveGenOptions& gen) {
  Rng rng = Rng::for_stream(cell_seed("live:" + target.name, config, seed),
                            static_cast<std::uint64_t>(run_index));
  LiveRunPlan plan;
  plan.lossy = rng.chance(1, 4);
  plan.proposals = random_proposals(config, rng);
  plan.options = plan.lossy ? random_lossy_live_options(config, rng, gen)
                            : random_valid_live_options(config, rng, gen);
  return plan;
}

LiveRunPlan live_socket_run_plan(const FuzzTarget& target, SystemConfig config,
                                 std::uint64_t seed, long run_index,
                                 const LiveGenOptions& gen) {
  Rng rng = Rng::for_stream(cell_seed("socket:" + target.name, config, seed),
                            static_cast<std::uint64_t>(run_index));
  LiveRunPlan plan;
  plan.lossy = false;  // the supervisor holds copies; it never drops them
  plan.proposals = random_proposals(config, rng);
  plan.options = random_socket_live_options(config, rng, gen);
  plan.chaos = random_wire_chaos(rng);
  return plan;
}

LiveFuzzReport live_fuzz_target(const FuzzTarget& target, SystemConfig config,
                                const LiveFuzzOptions& options) {
  config.validate();
  const ViolationPredicate violated = find_check(target.check);

  const LiveCell cell = parallel_reduce<LiveCell>(
      options.budget, options.campaign.resolved_chunk(4),
      options.campaign.resolved_jobs(), LiveCell{},
      [&](long, long begin, long end) {
        LiveCell partial;
        for (long i = begin; i < end; ++i) {
          if (options.deadline && Clock::now() >= *options.deadline) {
            partial.wall_cutoff = true;
            break;
          }
          const RunOutcome outcome =
              options.socket
                  ? judge_socket_run(target, config, violated, options.seed,
                                     i, options.gen, options.groups)
                  : judge_run(target, config, violated, options.seed, i,
                              options.gen);
          ++partial.runs;
          if (outcome.lossy) ++partial.lossy_runs;
          if (outcome.flagged_invalid) ++partial.flagged_invalid;
          if (outcome.caught) ++partial.caught;
          partial.counters += outcome.counters;
          if (outcome.finding) {
            ++partial.findings;
            if (!partial.first ||
                outcome.finding->run_index < partial.first->run_index) {
              partial.first = outcome.finding;
            }
          }
        }
        return partial;
      });

  LiveFuzzReport report;
  report.target = target.name;
  report.config = config;
  report.model = target.model;
  report.expect_safe = target.expect_safe;
  report.runs = cell.runs;
  report.lossy_runs = cell.lossy_runs;
  report.flagged_invalid = cell.flagged_invalid;
  report.caught = cell.caught;
  report.findings = cell.findings;
  report.wall_cutoff = cell.wall_cutoff;
  report.socket_counters = cell.counters;
  if (!cell.first) return report;

  DriverOptions sweep;
  sweep.live = true;
  sweep.socket = options.socket;
  sweep.algo = target.name;
  sweep.seed = options.seed;
  sweep.n = config.n;
  sweep.t = config.t;
  sweep.groups = options.groups;
  sweep.sync = to_string(options.gen.synchronizer);
  FuzzFinding finding = *cell.first;
  finding.repro.comment =
      std::string("live fuzz find (") + to_string(finding.kind) + "): " +
      finding.description +
      "\nexported from a live run; not regenerable from the seed alone" +
      "\ncampaign: " + command_line(sweep) + " (run index " +
      std::to_string(finding.run_index) + ")";
  claim_and_shrink(target, finding, options.shrink);
  report.first = std::move(finding);
  return report;
}

std::pair<std::string, ReproCase> live_loss_sample() {
  const SystemConfig cfg{.n = 3, .t = 1};
  LiveOptions o;
  // Three fully-lossy capped rounds, then a synchronous tail: 25 ms GST
  // against 10 ms round caps leaves >= 5 ms between every round boundary
  // and the GST, so the set of dropped copies — and hence the exported
  // bytes — is machine-independent.
  o.gst = std::chrono::milliseconds{25};
  o.loss_prob = 1.0;
  o.round_cap = std::chrono::milliseconds{10};
  o.pre_gst = LatencyModel{std::chrono::microseconds{50},
                           std::chrono::microseconds{0}};
  o.post_gst = LatencyModel{std::chrono::microseconds{20},
                            std::chrono::microseconds{0}};
  o.quorum_grace = std::chrono::milliseconds{5};
  o.max_rounds = 64;
  o.seed = 2002;
  const FuzzTarget* hr = find_fuzz_target("hr");
  const RunResult live =
      run_live(cfg, o, hr->factory, distinct_proposals(cfg.n));

  ReproCase repro = live_repro(*hr, {}, live.trace);
  repro.expect_invalid = true;
  repro.comment =
      "live-fuzz corpus seed: total pre-GST loss (loss_prob=1, GST=25ms,\n"
      "round_cap=10ms) drops every cross copy of the first three rounds;\n"
      "the validator must reject the export (reliable channels).\n"
      "regenerate: fuzz_consensus --live --samples DIR";
  return {"live-loss-hr.sched", repro};
}

std::pair<std::string, ReproCase> live_crash_partition_sample() {
  const SystemConfig cfg{.n = 5, .t = 2};
  LiveOptions o;
  // The partition window outlives the GST, so it heals exactly AT the
  // wall-clock GST.  The crash is a round-1 before-send: p4 contributes no
  // copies at all, so every round closes on the full live-copy set and no
  // close ever races p4's crash report against a copy still in flight (a
  // mid-run crash would: the report travels through shared memory while the
  // crasher's previous-round copies are still on the latency path, and
  // which one lands first decides the delivery set).  Margins: the heal
  // releases the held copies 3 ms before any quorum-grace timer can fire.
  o.gst = std::chrono::milliseconds{2};
  PartitionSpec cut;
  cut.from = std::chrono::microseconds{0};
  cut.until = std::chrono::milliseconds{3};
  cut.group = ProcessSet{0, 1, 2};
  o.partitions.push_back(cut);
  o.crashes.push_back(CrashInjection{4, 1, true});
  o.quorum_grace = std::chrono::milliseconds{5};
  o.pre_gst = LatencyModel{std::chrono::microseconds{50},
                           std::chrono::microseconds{100}};
  o.post_gst = LatencyModel{std::chrono::microseconds{20},
                            std::chrono::microseconds{40}};
  o.seed = 7;
  const FuzzTarget* at2 = find_fuzz_target("at2");
  const RunResult live =
      run_live(cfg, o, at2->factory, distinct_proposals(cfg.n));

  ReproCase repro;
  repro.algo = "at2";
  repro.comment =
      "live-fuzz corpus seed: partition {p0,p1,p2} healing at the wall-clock\n"
      "GST (2ms) with p4 crashed before-send from round 1 — the\n"
      "synchronizer's partition/GST boundary.  Model-valid, decides.\n"
      "regenerate: fuzz_consensus --live --samples DIR";
  repro.schedule = schedule_from_trace(live.trace);
  return {"live-crash-partition-at2.sched", repro};
}

std::pair<std::string, ReproCase> live_sharded_sample() {
  const SystemConfig cfg{.n = 3, .t = 1};
  ShardedOptions sharded;
  sharded.num_nodes = 4;  // one endpoint hosts nothing for some groups
  sharded.num_groups = 3;
  sharded.config = cfg;
  // Clean fabric, generous grace: the sample must export the same decision
  // pattern on any machine, so the only adversary here is the demux layer
  // itself (three groups' envelopes interleaved on every shared link).
  sharded.live.quorum_grace = std::chrono::milliseconds{5};
  sharded.live.max_rounds = 64;
  sharded.live.seed = 2026;
  sharded.socket.seed = 2026;
  const FuzzTarget* at2 = find_fuzz_target("at2");
  const ShardedResult result = run_sharded(
      sharded, [&](GroupId) { return at2->factory; },
      [&](GroupId g) {
        std::vector<Value> proposals;
        for (ProcessId pid = 0; pid < cfg.n; ++pid) {
          proposals.push_back(100 * (g + 1) + pid);
        }
        return proposals;
      });
  // Group 1's slice of the sharded run.
  ReproCase repro =
      live_repro(*at2, {200, 201, 202}, result.groups.at(1).result.trace);
  repro.comment =
      "live-fuzz corpus seed: group 1 of a clean 3-group sharded socket run\n"
      "(at2, n=3 per group, 4 node endpoints).  Its envelopes shared every\n"
      "link and seq/ack stream with groups 0 and 2, so this per-group trace\n"
      "exists only because the demux routed correctly.  Model-valid, "
      "decides.\n"
      "regenerate: fuzz_consensus --live --samples DIR";
  return {"live-sharded-group-at2.sched", repro};
}

}  // namespace indulgence
