// The fuzzing campaign: determinism across job counts, rediscovery of the
// known-broken variants, and the safe/broken verdict split.

#include <gtest/gtest.h>

#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/targets.hpp"
#include "sim/validator.hpp"

namespace indulgence {
namespace {

TEST(FuzzCampaign, FindsTheTruncatedAt2QuicklyAndShrinksIt) {
  const FuzzTarget* target = find_fuzz_target("at2-trunc");
  ASSERT_NE(target, nullptr);
  FuzzOptions options;
  options.budget = 200;
  const FuzzReport report =
      fuzz_target(*target, SystemConfig{.n = 3, .t = 1}, options);
  EXPECT_EQ(report.invalid_runs, 0) << "generator left the model";
  ASSERT_GT(report.violations, 0);
  ASSERT_TRUE(report.first.has_value());
  EXPECT_LE(report.first->repro.schedule.planned_rounds(), 4);
  EXPECT_FALSE(report.as_expected() && target->expect_safe);
}

TEST(FuzzCampaign, ReportIsIdenticalAtAnyJobCount) {
  const FuzzTarget* target = find_fuzz_target("at2-haltfilter");
  ASSERT_NE(target, nullptr);
  const SystemConfig cfg{.n = 3, .t = 1};
  FuzzOptions serial;
  serial.budget = 300;
  serial.campaign.jobs = 1;
  FuzzOptions wide = serial;
  wide.campaign.jobs = 4;
  wide.campaign.chunk = 7;  // ragged chunking must not change the verdict
  const FuzzReport a = fuzz_target(*target, cfg, serial);
  const FuzzReport b = fuzz_target(*target, cfg, wide);
  EXPECT_EQ(a.violations, b.violations);
  ASSERT_EQ(a.first.has_value(), b.first.has_value());
  if (a.first) {
    EXPECT_EQ(a.first->run_index, b.first->run_index);
    EXPECT_EQ(a.first->repro.schedule, b.first->repro.schedule);
    EXPECT_EQ(a.first->original, b.first->original);
    EXPECT_EQ(a.first->repro.proposals, b.first->repro.proposals);
  }
}

TEST(FuzzCampaign, SafeTargetsSurviveASmokeBudget) {
  const SystemConfig cfg{.n = 3, .t = 1};
  FuzzOptions options;
  options.budget = 150;
  for (const char* name : {"floodset", "hr", "at2"}) {
    const FuzzTarget* target = find_fuzz_target(name);
    ASSERT_NE(target, nullptr) << name;
    const FuzzReport report = fuzz_target(*target, cfg, options);
    EXPECT_EQ(report.violations, 0) << name;
    EXPECT_EQ(report.invalid_runs, 0) << name;
    EXPECT_TRUE(report.as_expected()) << name;
  }
}

TEST(FuzzCampaign, EveryGeneratedScheduleIsModelValid) {
  // The generator's core promise, checked directly against the validator:
  // random schedules never blame the algorithm for an out-of-model run.
  const FuzzTarget* target = find_fuzz_target("at2");
  ASSERT_NE(target, nullptr);
  const SystemConfig cfg{.n = 4, .t = 1};
  FuzzOptions options;
  options.budget = 300;
  const FuzzReport report = fuzz_target(*target, cfg, options);
  EXPECT_EQ(report.invalid_runs, 0);
  EXPECT_EQ(report.runs, 300);
}

TEST(FuzzCampaign, ByzantineDrawsAreDeterministicAndBudgeted) {
  // The --byz generator contract: same (seed, index) regenerates the same
  // lies, the liar set fits the declared budget, liars are never crashed,
  // and crashes + liars together stay within t.
  const FuzzTarget* target = find_fuzz_target("at2-auth");
  ASSERT_NE(target, nullptr);
  const SystemConfig cfg{.n = 7, .t = 2};
  FuzzGenOptions gen;
  gen.byz = 2;
  int with_lies = 0;
  for (long i = 0; i < 40; ++i) {
    const RunSchedule a = fuzz_run_schedule(*target, cfg, /*seed=*/9, i, gen);
    const RunSchedule b = fuzz_run_schedule(*target, cfg, /*seed=*/9, i, gen);
    EXPECT_EQ(a, b) << "run " << i;
    EXPECT_EQ(a.byzantine_budget(), 2) << "run " << i;
    const ProcessSet liars = a.byzantine_processes();
    EXPECT_LE(liars.size(), 2) << "run " << i;
    EXPECT_TRUE((liars & a.crashed_processes()).empty()) << "run " << i;
    EXPECT_LE(a.crashed_processes().size() + liars.size(), cfg.t)
        << "run " << i;
    if (liars.size() > 0) ++with_lies;
  }
  EXPECT_GT(with_lies, 30) << "byz draws should fire on most runs";
}

TEST(FuzzCampaign, ByzantineRunsStayModelValid) {
  // Regression: a liar forging a copy in the receiver's own name and routing
  // it through a laggard delay must not be misread as an honest self-delivery
  // timing violation.  Every byz-generated run must stay model-valid.
  const SystemConfig cfg{.n = 4, .t = 1};
  FuzzOptions options;
  options.budget = 300;
  options.gen.byz = 1;
  for (const char* name : {"hr", "at2", "at2-auth"}) {
    const FuzzTarget* target = find_fuzz_target(name);
    ASSERT_NE(target, nullptr) << name;
    const FuzzReport report = fuzz_target(*target, cfg, options);
    EXPECT_EQ(report.invalid_runs, 0) << name;
    EXPECT_EQ(report.runs, 300) << name;
  }
}

TEST(FuzzCampaign, AuthenticatedTargetSurvivesWhereAblationsBreak) {
  // The paper-level verdict in miniature: under one budgeted liar the full
  // A_{t+2}^auth stays safe while each ablated variant loses a property.
  const SystemConfig cfg{.n = 4, .t = 1};
  FuzzOptions options;
  options.budget = 300;
  options.gen.byz = 1;
  options.seed = 3;
  const FuzzTarget* full = find_fuzz_target("at2-auth");
  ASSERT_NE(full, nullptr);
  const FuzzReport safe = fuzz_target(*full, cfg, options);
  EXPECT_EQ(safe.violations, 0);
  EXPECT_TRUE(safe.as_expected());
  for (const char* name :
       {"at2-auth-notags", "at2-auth-noecho", "at2-auth-nodedup"}) {
    const FuzzTarget* ablated = find_fuzz_target(name);
    ASSERT_NE(ablated, nullptr) << name;
    EXPECT_TRUE(ablated->byz_only) << name;
    const FuzzReport broken = fuzz_target(*ablated, cfg, options);
    EXPECT_GT(broken.violations, 0) << name;
    EXPECT_EQ(broken.invalid_runs, 0) << name;
    EXPECT_TRUE(broken.as_expected()) << name;
  }
}

TEST(FuzzCampaign, ByzantineFindNamesItsWholeSweep) {
  // The regenerate line carries every non-default flag of the sweep, so
  // running it finds the same run.
  const FuzzTarget* target = find_fuzz_target("at2");
  ASSERT_NE(target, nullptr);
  FuzzOptions options;
  options.seed = 3;
  options.budget = 300;
  options.gen.byz = 1;
  const FuzzReport report =
      fuzz_target(*target, SystemConfig{.n = 4, .t = 1}, options);
  ASSERT_TRUE(report.first.has_value());
  EXPECT_NE(report.first->repro.comment.find(
                "regenerate: fuzz_consensus --algo at2 --byz 1 --n 4 --t 1 "
                "--seed 3 (run index 1)"),
            std::string::npos)
      << report.first->repro.comment;
}

TEST(FuzzCampaign, ShrinkingStaysWithinSystemsTheTargetAccepts) {
  // A_{f+2} accepts n=4 t=1 but rejects n=3 t=1: shrinking its liar find
  // must not walk into a system its algorithm refuses to run.
  const FuzzTarget* target = find_fuzz_target("af2");
  ASSERT_NE(target, nullptr);
  FuzzOptions options;
  options.seed = 3;
  options.budget = 300;
  options.gen.byz = 1;
  const FuzzReport report =
      fuzz_target(*target, SystemConfig{.n = 4, .t = 1}, options);
  ASSERT_TRUE(report.first.has_value());
  EXPECT_FALSE(rejection(*target, report.first->repro.config()).has_value());
  EXPECT_TRUE(replay_repro(*target, report.first->repro).matches());
}

TEST(FuzzCampaign, ZeroByzBudgetReproducesTheHistoricalDrawStream) {
  // gen.byz = 0 must leave the schedule stream byte-identical to a default
  // FuzzGenOptions — appended byz draws never perturb historical seeds.
  const FuzzTarget* target = find_fuzz_target("at2");
  ASSERT_NE(target, nullptr);
  const SystemConfig cfg{.n = 4, .t = 1};
  FuzzGenOptions zero;
  zero.byz = 0;
  for (long i = 0; i < 25; ++i) {
    std::vector<Value> pa, pb;
    const RunSchedule a = fuzz_run_schedule(*target, cfg, 1, i, {}, &pa);
    const RunSchedule b = fuzz_run_schedule(*target, cfg, 1, i, zero, &pb);
    EXPECT_EQ(a, b) << "run " << i;
    EXPECT_EQ(pa, pb) << "run " << i;
    EXPECT_EQ(b.byzantine_budget(), 0) << "run " << i;
  }
}

TEST(FuzzCampaign, AnySingleRunRegeneratesInIsolation) {
  // (seed, target, config, index) alone reproduces a run's schedule — the
  // property repro files and --out depend on.
  const FuzzTarget* target = find_fuzz_target("at2-trunc");
  ASSERT_NE(target, nullptr);
  const SystemConfig cfg{.n = 3, .t = 1};
  std::vector<Value> p1, p2;
  const RunSchedule a =
      fuzz_run_schedule(*target, cfg, /*seed=*/1, /*run_index=*/14, {}, &p1);
  const RunSchedule b =
      fuzz_run_schedule(*target, cfg, /*seed=*/1, /*run_index=*/14, {}, &p2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(p1, p2);
  const RunSchedule c =
      fuzz_run_schedule(*target, cfg, /*seed=*/1, /*run_index=*/15, {});
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace indulgence
