// A_{t+2}^auth (core/at2_auth.hpp): crash-only correctness on the standard
// hostile sweeps, survival under every lie class at b < n/3, and the
// mechanism-necessity matrix — each ablated variant breaks under the lie
// class its mechanism defends against, on a schedule the full variant
// survives unchanged.

#include <gtest/gtest.h>

#include "core/at2_auth.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"
#include "sim/validator.hpp"

namespace indulgence {
namespace {

const SystemConfig kCfg4{.n = 4, .t = 1};
const SystemConfig kCfg7{.n = 7, .t = 2};

KernelOptions es_options(Round max_rounds = 64) {
  KernelOptions o;
  o.model = Model::ES;
  o.max_rounds = max_rounds;
  return o;
}

RunTrace run(const SystemConfig& cfg, const AlgorithmFactory& factory,
             const RunSchedule& schedule, Round max_rounds = 64) {
  return run_schedule(cfg, es_options(max_rounds), factory,
                      distinct_proposals(cfg.n), schedule);
}

void expect_consensus(const RunTrace& trace, const std::string& what) {
  const ValidationReport report = validate_trace(trace);
  EXPECT_TRUE(report.ok()) << what << ": " << report.to_string();
  EXPECT_TRUE(trace.agreement_ok()) << what << "\n" << trace.to_string();
  EXPECT_TRUE(trace.terminated()) << what << "\n" << trace.to_string();
}

// ---------------------------------------------------------------------------
// Resilience bound and crash-only behaviour
// ---------------------------------------------------------------------------

TEST(At2Auth, RequiresMoreThanThreeT) {
  const SystemConfig bad{.n = 3, .t = 1};
  EXPECT_THROW(at2_auth_factory()(0, bad), std::invalid_argument);
  EXPECT_NO_THROW(at2_auth_factory()(0, kCfg4));
}

TEST(At2Auth, CleanSynchronousRunDecidesInOneView) {
  for (const SystemConfig& cfg : {kCfg4, kCfg7}) {
    const RunTrace trace =
        run(cfg, at2_auth_factory(), ScheduleBuilder(cfg).build());
    expect_consensus(trace, "clean run");
    // PROPOSE/PREPARE/COMMIT: everyone decides at round 3; validity in the
    // classical sense holds with no liars — view 0's leader proposed its
    // own estimate.
    EXPECT_TRUE(trace.validity_ok());
    for (const DecisionRecord& d : trace.decisions()) {
      EXPECT_EQ(d.round, price(PriceRow::At2Auth, cfg, 0).round);
      EXPECT_EQ(d.value, 0);  // leader p0's proposal
    }
  }
}

TEST(At2Auth, SurvivesAllHostileCrashSchedules) {
  // The sweep throws on any run that is model-invalid, disagrees, breaks
  // validity or leaves a correct process undecided.
  EXPECT_NO_THROW(worst_case_sync_decision_round(
      kCfg4, es_options(), at2_auth_factory(),
      all_hostile_sync_schedules(kCfg4), {distinct_proposals(kCfg4.n)}));
}

TEST(At2Auth, SurvivesPreGstDelays) {
  // View 0's whole exchange straggles: the PROPOSE and PREPARE broadcasts
  // of p0 reach p1 late.  Progress resumes with the first synchronous view.
  ScheduleBuilder b(kCfg4);
  b.gst(4);
  b.delay(0, 1, 1, 4);
  b.delay(0, 1, 2, 4);
  const RunTrace trace = run(kCfg4, at2_auth_factory(), b.build());
  expect_consensus(trace, "pre-GST delays");
}

// ---------------------------------------------------------------------------
// Survival under every lie class at b < n/3
// ---------------------------------------------------------------------------

TEST(At2Auth, SurvivesEachLieClassInEveryRound) {
  for (LieKind kind : {LieKind::Equivocate, LieKind::Lie, LieKind::Forge,
                       LieKind::Replay, LieKind::Silence}) {
    for (Round r = 1; r <= 9; ++r) {
      ScheduleBuilder b(kCfg4);
      switch (kind) {
        case LieKind::Equivocate: b.equivocate(3, r, -9, 1); break;
        case LieKind::Lie: b.lie(3, r, -9, 1); break;
        case LieKind::Forge: b.forge(3, 0, r, 1); break;
        case LieKind::Replay:
          if (r < 2) continue;
          b.replay(3, r, r - 1, 1);
          break;
        case LieKind::Silence: b.silence(3, r, 1); break;
      }
      const RunTrace trace = run(kCfg4, at2_auth_factory(), b.build());
      expect_consensus(trace, std::string(to_string(kind)) + " @ round " +
                                  std::to_string(r));
    }
  }
}

TEST(At2Auth, SurvivesTwoMixedLiarsAtNSeven) {
  // b = 2 < 7/3: one equivocating leader-adjacent liar, one forging one,
  // active across the first three views.
  ScheduleBuilder b(kCfg7);
  for (Round r = 1; r <= 9; ++r) {
    b.equivocate(5, r, -9, 1);
    b.forge(6, 0, r, 2, -9);
    b.silence(6, r, 3);
  }
  const RunTrace trace = run(kCfg7, at2_auth_factory(), b.build(), 96);
  expect_consensus(trace, "two mixed liars at n=7");
}

// ---------------------------------------------------------------------------
// The necessity matrix: each mechanism ablated => its lie class wins
// ---------------------------------------------------------------------------

/// AUTH TAGS: forged prepares claiming two honest ids (with a mutated
/// value) poison the victim's equivocation ledger — p1 convicts p0 and p2,
/// can never again assemble an n-t quorum or t+1 decide claims, and the
/// run loses termination.
RunSchedule forge_attack(const SystemConfig& cfg) {
  ScheduleBuilder b(cfg);
  b.forge(3, 0, 2, 1, -9);
  b.forge(3, 2, 2, 1, -9);
  return b.build();
}

TEST(At2AuthMatrix, NoTagsBreaksUnderForgery) {
  const RunTrace trace = run(
      kCfg4, at2_auth_factory({.ablate_tags = true}), forge_attack(kCfg4));
  EXPECT_TRUE(validate_trace(trace).ok());
  EXPECT_FALSE(trace.terminated())
      << "identity theft should starve p1 forever\n" << trace.to_string();
}

TEST(At2AuthMatrix, FullVariantSurvivesForgery) {
  const RunTrace trace = run(kCfg4, at2_auth_factory(), forge_attack(kCfg4));
  expect_consensus(trace, "full variant under forgery");
}

/// ECHO CERTIFICATES: an equivocated COMMIT splits the decision when one
/// matching voice suffices.
RunSchedule commit_equivocation_attack(const SystemConfig& cfg) {
  ScheduleBuilder b(cfg);
  b.equivocate(0, 3, -9, 1);
  return b.build();
}

TEST(At2AuthMatrix, NoEchoBreaksUnderEquivocation) {
  const RunTrace trace =
      run(kCfg4, at2_auth_factory({.ablate_echo = true}),
          commit_equivocation_attack(kCfg4));
  EXPECT_TRUE(validate_trace(trace).ok());
  EXPECT_FALSE(trace.agreement_ok())
      << "p1 should trust the lone -9 commit\n" << trace.to_string();
}

TEST(At2AuthMatrix, FullVariantSurvivesCommitEquivocation) {
  const RunTrace trace =
      run(kCfg4, at2_auth_factory(), commit_equivocation_attack(kCfg4));
  expect_consensus(trace, "full variant under commit equivocation");
}

/// QUORUM DEDUP: hold p1 one round behind (a budgeted silence plus one
/// pre-GST laggard link), let everyone else decide, then feed p1 a single
/// mutated DECIDE claim.
RunSchedule lone_decide_claim_attack(const SystemConfig& cfg) {
  ScheduleBuilder b(cfg);
  b.gst(5);
  b.delay(0, 1, 3, 4);      // p0's COMMIT to p1 arrives a round late
  b.delay(0, 1, 4, 5);      // ...and so does p0's DECIDE claim
  b.silence(2, 3, 1);       // the liar withholds its COMMIT from p1
  b.lie(2, 4, -9, 1);       // ...then mutates its DECIDE claim to p1,
                            // which is the first claim p1 processes
  return b.build();
}

TEST(At2AuthMatrix, NoDedupBreaksUnderLoneDecideClaim) {
  const RunTrace trace =
      run(kCfg4, at2_auth_factory({.ablate_dedup = true}),
          lone_decide_claim_attack(kCfg4));
  EXPECT_TRUE(validate_trace(trace).ok());
  EXPECT_FALSE(trace.agreement_ok())
      << "p1 should adopt the lone -9 claim\n" << trace.to_string();
}

TEST(At2AuthMatrix, FullVariantSurvivesLoneDecideClaim) {
  const RunTrace trace =
      run(kCfg4, at2_auth_factory(), lone_decide_claim_attack(kCfg4));
  expect_consensus(trace, "full variant under lone decide claim");
}

}  // namespace
}  // namespace indulgence
