// The live fuzz campaign: the per-run plans are a pure function of the
// seed stream, the report's deterministic columns are identical across
// invocations and job counts, every expected-invalid (lossy) draw is
// flagged invalid by the validator, the two corpus-seed repros are
// regenerable byte-for-byte and replay to their claimed verdicts, and a
// live or socket find is a repro that the judge replays to its claim.

#include "fuzz/live_fuzzer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>

#include "consensus/consensus.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/targets.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

const FuzzTarget& target(const std::string& name) {
  const FuzzTarget* t = find_fuzz_target(name);
  EXPECT_NE(t, nullptr) << name;
  return *t;
}

void expect_same_plan(const LiveRunPlan& a, const LiveRunPlan& b) {
  EXPECT_EQ(a.lossy, b.lossy);
  EXPECT_EQ(a.proposals, b.proposals);
  EXPECT_EQ(a.options.seed, b.options.seed);
  EXPECT_EQ(a.options.gst, b.options.gst);
  EXPECT_EQ(a.options.loss_prob, b.options.loss_prob);
  EXPECT_EQ(a.options.round_cap, b.options.round_cap);
  EXPECT_EQ(a.options.quorum_grace, b.options.quorum_grace);
  EXPECT_EQ(a.options.max_rounds, b.options.max_rounds);
  EXPECT_EQ(a.options.pre_gst.floor, b.options.pre_gst.floor);
  EXPECT_EQ(a.options.pre_gst.jitter, b.options.pre_gst.jitter);
  EXPECT_EQ(a.options.post_gst.floor, b.options.post_gst.floor);
  EXPECT_EQ(a.options.post_gst.jitter, b.options.post_gst.jitter);
  ASSERT_EQ(a.options.partitions.size(), b.options.partitions.size());
  for (std::size_t i = 0; i < a.options.partitions.size(); ++i) {
    EXPECT_EQ(a.options.partitions[i].from, b.options.partitions[i].from);
    EXPECT_EQ(a.options.partitions[i].until, b.options.partitions[i].until);
    EXPECT_EQ(a.options.partitions[i].group, b.options.partitions[i].group);
  }
  ASSERT_EQ(a.options.crashes.size(), b.options.crashes.size());
  for (std::size_t i = 0; i < a.options.crashes.size(); ++i) {
    EXPECT_EQ(a.options.crashes[i].pid, b.options.crashes[i].pid);
    EXPECT_EQ(a.options.crashes[i].round, b.options.crashes[i].round);
    EXPECT_EQ(a.options.crashes[i].before_send,
              b.options.crashes[i].before_send);
  }
}

TEST(LiveFuzz, RunPlansAreAPureFunctionOfTheSeedStream) {
  const SystemConfig cfg{.n = 4, .t = 1};
  for (long i = 0; i < 12; ++i) {
    expect_same_plan(live_fuzz_run_plan(target("hr"), cfg, 42, i),
                     live_fuzz_run_plan(target("hr"), cfg, 42, i));
  }
}

TEST(LiveFuzz, PlansRespectTheDrawInvariants) {
  const SystemConfig cfg{.n = 4, .t = 1};
  bool saw_lossy = false;
  bool saw_valid = false;
  for (long i = 0; i < 32; ++i) {
    const LiveRunPlan plan = live_fuzz_run_plan(target("at2"), cfg, 9, i);
    EXPECT_EQ(plan.proposals.size(), 4u);
    if (plan.lossy) {
      saw_lossy = true;
      // Expected-invalid profile: loss is certainly violated and the
      // round_cap valve bounds the run.
      EXPECT_GT(plan.options.loss_prob, 0.0);
      EXPECT_GT(plan.options.round_cap.count(), 0);
      EXPECT_LE(plan.options.max_rounds, 8);
    } else {
      saw_valid = true;
      // Model-valid profile: no loss, no cap, at most t crash injections.
      EXPECT_EQ(plan.options.loss_prob, 0.0);
      EXPECT_EQ(plan.options.round_cap.count(), 0);
      EXPECT_LE(plan.options.crashes.size(),
                static_cast<std::size_t>(cfg.t));
    }
  }
  EXPECT_TRUE(saw_lossy);
  EXPECT_TRUE(saw_valid);
}

LiveFuzzOptions serial_options(std::uint64_t seed, long budget) {
  LiveFuzzOptions o;
  o.seed = seed;
  o.budget = budget;
  o.campaign.jobs = 1;  // the INDULGENCE_JOBS=1 reference mode
  return o;
}

TEST(LiveFuzz, ReportIsDeterministicPerSeedAndFlagsEveryLossyRun) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const LiveFuzzReport a =
      live_fuzz_target(target("hr"), cfg, serial_options(11, 10));
  const LiveFuzzReport b =
      live_fuzz_target(target("hr"), cfg, serial_options(11, 10));

  EXPECT_EQ(a.runs, 10);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.lossy_runs, b.lossy_runs);
  EXPECT_EQ(a.flagged_invalid, b.flagged_invalid);
  EXPECT_EQ(a.findings, b.findings);
  EXPECT_FALSE(a.wall_cutoff);

  // Healthy repository: zero findings, and every expected-invalid draw was
  // rejected by the validator (loss_prob > 0 must always be flagged).
  EXPECT_TRUE(a.as_expected());
  EXPECT_EQ(a.flagged_invalid, a.lossy_runs);
  EXPECT_FALSE(a.first.has_value());
}

TEST(LiveFuzz, DeadlineInThePastStopsBeforeTheFirstRun) {
  const SystemConfig cfg{.n = 3, .t = 1};
  LiveFuzzOptions o = serial_options(1, 50);
  o.deadline = std::chrono::steady_clock::now();
  const LiveFuzzReport report = live_fuzz_target(target("hr"), cfg, o);
  EXPECT_TRUE(report.wall_cutoff);
  EXPECT_EQ(report.runs, 0);
}

TEST(LiveFuzz, LossSampleIsByteStableAndReplaysInvalid) {
  const auto [name, repro] = live_loss_sample();
  const auto second = live_loss_sample();
  EXPECT_EQ(name, "live-loss-hr.sched");
  EXPECT_TRUE(repro.expect_invalid);
  EXPECT_EQ(print_repro(repro), print_repro(second.second));

  const ReplayVerdict verdict = replay_repro(name, repro);
  EXPECT_TRUE(verdict.matches()) << verdict.detail;
  EXPECT_FALSE(verdict.model_valid)
      << "a total-loss live run must export an invalid schedule";
}

TEST(LiveFuzz, CrashPartitionSampleIsByteStableAndReplaysOk) {
  const auto [name, repro] = live_crash_partition_sample();
  const auto second = live_crash_partition_sample();
  EXPECT_EQ(name, "live-crash-partition-at2.sched");
  EXPECT_FALSE(repro.expect_invalid);
  EXPECT_FALSE(repro.expect_violation);
  EXPECT_EQ(print_repro(repro), print_repro(second.second));

  const ReplayVerdict verdict = replay_repro(name, repro);
  EXPECT_TRUE(verdict.matches()) << verdict.detail;
  EXPECT_TRUE(verdict.model_valid);
}

TEST(LiveFuzz, SamplesMatchTheCheckedInCorpusBytes) {
  for (const auto& [name, repro] :
       {live_loss_sample(), live_crash_partition_sample()}) {
    std::ifstream in(std::string(INDULGENCE_CORPUS_DIR) + "/" + name);
    ASSERT_TRUE(in) << name << " missing from tests/corpus/";
    std::ostringstream checked_in;
    checked_in << in.rdbuf();
    EXPECT_EQ(checked_in.str(), print_repro(repro))
        << name << " drifted; regenerate: fuzz_consensus --live --samples "
        << "tests/corpus";
  }
}

/// Decides its own proposal in round 1, so distinct proposals break
/// agreement on every run.
class DecideOwnProposal final : public RoundAlgorithm {
 public:
  void propose(Value v) override { proposal_ = v; }
  MessagePtr message_for_round(Round) override {
    return std::make_shared<FillerMessage>();
  }
  void on_round(Round, const Delivery&) override { decision_ = proposal_; }
  std::optional<Value> decision() const override { return decision_; }
  bool halted() const override { return false; }
  std::string name() const override { return "decide-own"; }

 private:
  Value proposal_ = 0;
  std::optional<Value> decision_;
};

TEST(LiveFuzz, LiveAndSocketFindsAreReprosThatReplayToTheirClaim) {
  // An ES target that owes safety and breaks it on every valid draw: both
  // sweeps must report findings, and the first must be a repro the judge
  // replays to its claim, naming the sweep that found it.
  const FuzzTarget decide_own{
      "decide-own", "decides its own proposal in round 1", Model::ES, true,
      "consensus",
      [](ProcessId, const SystemConfig&) -> std::unique_ptr<RoundAlgorithm> {
        return std::make_unique<DecideOwnProposal>();
      }};
  const SystemConfig cfg{.n = 3, .t = 1};
  for (const bool socket : {false, true}) {
    LiveFuzzOptions o = serial_options(1, socket ? 2 : 8);
    o.socket = socket;
    const LiveFuzzReport report = live_fuzz_target(decide_own, cfg, o);
    EXPECT_GT(report.findings, 0) << "socket=" << socket;
    ASSERT_TRUE(report.first.has_value()) << "socket=" << socket;
    const ReproCase& repro = report.first->repro;
    EXPECT_TRUE(repro.expect_violation) << repro.comment;
    EXPECT_TRUE(replay_repro(decide_own, repro).matches()) << repro.comment;
    const std::string campaign =
        std::string("campaign: fuzz_consensus ") +
        (socket ? "--socket" : "--live") + " --algo decide-own --seed 1";
    EXPECT_NE(repro.comment.find(campaign), std::string::npos)
        << repro.comment;
  }
}

TEST(LiveFuzz, AnScsTargetsLiveFindReplaysUnderEs) {
  // Every live run is an ES run, so a FloodSet export may hold delays: its
  // repro must say `model ES`, or replaying it under FloodSet's own SCS
  // model throws on the first delay.
  const FuzzTarget& floodset = target("floodset");
  const SystemConfig cfg{.n = 3, .t = 1};
  ScheduleBuilder b(cfg);
  b.gst(2);
  b.delay(0, 1, 1, 2);
  KernelOptions es;
  es.max_rounds = 64;
  const RunTrace trace = run_schedule(cfg, es, floodset.factory,
                                      distinct_proposals(cfg.n), b.build());

  FuzzFinding find{.run_index = 0,
                   .kind = FindingKind::Divergence,
                   .description = "a delayed FloodSet copy",
                   .repro = live_repro(floodset, distinct_proposals(cfg.n),
                                       trace)};
  ASSERT_EQ(find.repro.schedule.plan(1).fate(0, 1).kind, FateKind::Delay);
  claim_and_shrink(floodset, find, /*shrink=*/true);
  EXPECT_EQ(find.repro.model, Model::ES);
  EXPECT_TRUE(replay_repro(floodset, find.repro).matches());
  const ReproCase reparsed = parse_repro(print_repro(find.repro));
  EXPECT_TRUE(replay_repro("live-floodset.sched", reparsed).matches());
}

}  // namespace
}  // namespace indulgence
