// Byzantine injection in the live runtime (src/net): round-indexed lies
// applied by the router and by the socket fabric must reach the wire as
// mutated / forged / suppressed copies, the merged trace must carry the
// declared liars so the unchanged model validator excuses exactly them,
// and the authenticated target must keep deciding correctly end-to-end
// while the lies land.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "fuzz/targets.hpp"
#include "net/runtime.hpp"
#include "net/sharded_runtime.hpp"
#include "sim/harness.hpp"
#include "sim/schedule.hpp"

namespace indulgence {
namespace {

const FuzzTarget& target(const std::string& name) {
  const FuzzTarget* t = find_fuzz_target(name);
  EXPECT_NE(t, nullptr) << name;
  return *t;
}

/// One liar (p3) exercising four lie classes across the first rounds:
/// equivocate in 1, flat lie in 2, forge claiming p1 in 3, selective
/// silence toward p0 in 4.  Rounds are small so the actions land before
/// any decision; a 3-round-view authenticated run decides at >= 3.
std::vector<ByzantineInjection> one_liar_plan() {
  std::vector<ByzantineInjection> plan;
  ByzantineEvent equivocate;
  equivocate.kind = LieKind::Equivocate;
  equivocate.liar = 3;
  equivocate.target = 1;
  equivocate.value = -9;
  plan.push_back(ByzantineInjection{1, equivocate});

  ByzantineEvent lie;
  lie.kind = LieKind::Lie;
  lie.liar = 3;
  lie.value = -7;
  plan.push_back(ByzantineInjection{2, lie});

  ByzantineEvent forge;
  forge.kind = LieKind::Forge;
  forge.liar = 3;
  forge.forged = 1;
  forge.value = -5;
  forge.has_value = true;
  plan.push_back(ByzantineInjection{3, forge});

  ByzantineEvent silence;
  silence.kind = LieKind::Silence;
  silence.liar = 3;
  silence.target = 0;
  plan.push_back(ByzantineInjection{4, silence});
  return plan;
}

/// The honest processes of the run must all decide, agree, and decide a
/// real proposal; the liar is exempt from every promise.
void expect_honest_consensus(const RunResult& r, const SystemConfig& cfg,
                             ProcessId liar) {
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  EXPECT_TRUE(r.termination) << r.summary();
  const std::vector<Value> proposals = distinct_proposals(cfg.n);
  std::optional<Value> decided;
  ProcessSet deciders;
  for (const DecisionRecord& d : r.trace.decisions()) {
    if (d.pid == liar) continue;
    if (!decided) decided = d.value;
    EXPECT_EQ(*decided, d.value) << "honest disagreement at p" << d.pid;
    deciders.insert(d.pid);
  }
  ASSERT_TRUE(decided.has_value()) << "no honest process decided";
  EXPECT_TRUE(std::find(proposals.begin(), proposals.end(), *decided) !=
              proposals.end())
      << "decided value " << *decided << " was never proposed";
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    if (pid == liar || r.trace.crashed().contains(pid)) continue;
    EXPECT_TRUE(deciders.contains(pid)) << "p" << pid << " never decided";
  }
}

TEST(LiveByzantine, AuthTargetSurvivesAllFourLieClassesOverTheRouter) {
  const SystemConfig cfg{.n = 4, .t = 1};  // n > 3t, so b = 1 is in budget
  LiveOptions options;
  options.seed = 5;
  options.byzantine = one_liar_plan();
  const RunResult r = run_live(cfg, options, target("at2-auth").factory,
                               distinct_proposals(cfg.n));
  expect_honest_consensus(r, cfg, /*liar=*/3);
  EXPECT_TRUE(r.trace.byzantine().contains(3));
  EXPECT_EQ(r.trace.byzantine_budget(), 1);
}

TEST(LiveByzantine, ForgedCopiesCarryTheLiarAsOriginInTheMergedTrace) {
  const SystemConfig cfg{.n = 4, .t = 1};
  LiveOptions options;
  options.seed = 6;
  options.byzantine = one_liar_plan();
  const RunResult r = run_live(cfg, options, target("at2-auth").factory,
                               distinct_proposals(cfg.n));
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  // The round-3 forge claims p1; the merged trace must attribute the extra
  // copy to its actual emitter so repro and diagnosis can see who paid.
  bool saw_forged = false;
  for (const DeliveryRecord& d : r.trace.deliveries()) {
    if (d.origin < 0) continue;
    EXPECT_EQ(d.origin, 3);
    EXPECT_EQ(d.sender, 1);
    EXPECT_EQ(d.send_round, 3);
    saw_forged = true;
  }
  EXPECT_TRUE(saw_forged) << "no forged delivery reached the merged trace";
}

TEST(LiveByzantine, CrashOnlyTargetStaysModelValidWithTheLiarExcused) {
  // Against a crash-only algorithm the lies land in full; whatever the
  // damage, the run must remain IN MODEL: the validator excuses exactly
  // the declared liar and still vouches for every honest process.
  const SystemConfig cfg{.n = 4, .t = 1};
  LiveOptions options;
  options.seed = 7;
  options.byzantine = one_liar_plan();
  const RunResult r = run_live(cfg, options, target("hr").factory,
                               distinct_proposals(cfg.n));
  EXPECT_TRUE(r.validation.ok()) << r.validation.to_string();
  EXPECT_TRUE(r.trace.byzantine().contains(3));
  EXPECT_EQ(r.trace.byzantine_budget(), 1);
}

TEST(LiveByzantine, OverBudgetPlansAreRejectedUpFront) {
  const SystemConfig cfg{.n = 4, .t = 1};
  LiveOptions options;
  ByzantineEvent lie;
  lie.kind = LieKind::Lie;
  lie.liar = 2;
  lie.value = -1;
  options.byzantine.push_back(ByzantineInjection{1, lie});
  lie.liar = 3;
  options.byzantine.push_back(ByzantineInjection{1, lie});
  // Two distinct liars at n = 4: 3b >= n, so the runtime must refuse to
  // stamp a budget the validator would reject anyway.
  LiveRuntime runtime(cfg, options);
  EXPECT_THROW(
      runtime.run(target("hr").factory, distinct_proposals(cfg.n)),
      std::invalid_argument);
}

TEST(LiveByzantine, ScriptedReplayOfByzantineSchedulesIsRejected) {
  // Scripted replay reproduces crash/delay fates, not content mutation;
  // silently replaying a Byzantine schedule as crash-only would "verify"
  // a repro without its lies.  The runtime must refuse instead.
  const SystemConfig cfg{.n = 4, .t = 1};
  ScheduleBuilder b(cfg);
  b.lie(3, 1, -9, 0);
  b.gst(1);
  const RunSchedule schedule = b.build();
  EXPECT_THROW(replay_schedule_live(cfg, Model::ES, schedule,
                                    target("hr").factory,
                                    distinct_proposals(cfg.n)),
               std::invalid_argument);
}

/// The authenticated target as one group over n Unix endpoints of the
/// socket fabric.
RunResult run_auth_over_sockets(const SystemConfig& cfg,
                                const LiveOptions& options) {
  ShardedOptions sharded;
  sharded.num_nodes = cfg.n;
  sharded.num_groups = 1;
  sharded.config = cfg;
  sharded.live = options;
  return run_sharded(
             sharded, [](GroupId) { return target("at2-auth").factory; },
             [&cfg](GroupId) { return distinct_proposals(cfg.n); })
      .groups.at(0)
      .result;
}

TEST(SocketByzantine, AuthTargetSurvivesTheSameLiesOverTheSocketHub) {
  // Same plan, real sockets: the per-receiver encode path must apply the
  // planner before framing, so mutated and forged copies cross the wire.
  const SystemConfig cfg{.n = 4, .t = 1};
  LiveOptions options;
  options.seed = 8;
  options.byzantine = one_liar_plan();
  const RunResult r = run_auth_over_sockets(cfg, options);
  expect_honest_consensus(r, cfg, /*liar=*/3);
  EXPECT_TRUE(r.trace.byzantine().contains(3));
  EXPECT_EQ(r.trace.byzantine_budget(), 1);
}

TEST(SocketByzantine, ForgedCopiesSurviveTheWireRoundTrip) {
  // The socket path serializes every copy; origin must survive framing
  // (wire v2 envelope field) and land in the merged trace.
  const SystemConfig cfg{.n = 4, .t = 1};
  LiveOptions options;
  options.seed = 9;
  options.byzantine = one_liar_plan();
  const RunResult r = run_auth_over_sockets(cfg, options);
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();
  bool saw_forged = false;
  for (const DeliveryRecord& d : r.trace.deliveries()) {
    if (d.origin < 0) continue;
    EXPECT_EQ(d.origin, 3);
    EXPECT_EQ(d.sender, 1);
    saw_forged = true;
  }
  EXPECT_TRUE(saw_forged) << "forged copy lost on the socket path";
}

}  // namespace
}  // namespace indulgence
