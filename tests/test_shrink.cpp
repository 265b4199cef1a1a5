// The delta-debugging shrinker: minimality of the result, monotone progress,
// and a real end-to-end shrink of a fuzzer find.

#include <gtest/gtest.h>

#include "core/at2.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/targets.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

long total_events(const RunSchedule& s) {
  long events = 0;
  for (Round k = 1; k <= s.last_planned_round(); ++k) {
    events += static_cast<long>(s.plan(k).crashes().size());
    events += static_cast<long>(s.plan(k).overrides().size());
  }
  return events;
}

TEST(Shrink, DropsEverythingWhenPredicateIgnoresTheSchedule) {
  // A predicate that always fails lets the shrinker delete every event and
  // collapse the system to its floor — the strongest possible reduction.
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 1).crash(1, 2).lose(2, 3, 1).delay(3, 4, 2, 9).gst(5);
  const ShrinkResult r =
      shrink_schedule(cfg, distinct_proposals(cfg.n), b.build(),
                      [](const SystemConfig&, const std::vector<Value>&,
                         const RunSchedule&) { return true; });
  EXPECT_EQ(total_events(r.schedule), 0);
  EXPECT_EQ(r.schedule.gst(), 1);
  EXPECT_EQ(r.config.n, 3);
  EXPECT_EQ(r.config.t, 0);
  EXPECT_EQ(r.proposals.size(), 3u);
}

TEST(Shrink, KeepsExactlyTheLoadBearingEvents) {
  // Predicate: "p0 still crashes and the round-2 p1->p2 message is still
  // not delivered on time" — only those two events are load-bearing.
  const SystemConfig cfg{.n = 4, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(0, 1).crash(1, 4);
  b.lose(2, 3, 1);
  b.delay(1, 2, 2, 6);
  b.gst(4);
  const ShrinkTest still_fails = [](const SystemConfig&,
                                    const std::vector<Value>&,
                                    const RunSchedule& s) {
    const Fate f = s.plan(2).fate(1, 2);
    return s.crashed_processes().contains(0) && f.kind != FateKind::Deliver;
  };
  const ShrinkResult r = shrink_schedule(cfg, distinct_proposals(cfg.n),
                                         b.build(), still_fails);
  EXPECT_EQ(total_events(r.schedule), 2);
  EXPECT_TRUE(r.schedule.crashed_processes().contains(0));
  EXPECT_FALSE(r.schedule.crashed_processes().contains(1));
  // The delay was squeezed to the minimum lateness (deliver next round) —
  // or replaced by an equivalent minimal non-Deliver fate.
  const Fate f = r.schedule.plan(2).fate(1, 2);
  EXPECT_NE(f.kind, FateKind::Deliver);
  if (f.kind == FateKind::Delay) {
    EXPECT_EQ(f.deliver_round, 3);
  }
  EXPECT_EQ(r.schedule.gst(), 1);
}

TEST(Shrink, ResultIsOneMinimal) {
  // End-to-end: shrink a real fuzzer find, then verify that removing ANY
  // remaining event makes the violation disappear (1-minimality).
  const FuzzTarget* target = find_fuzz_target("at2-trunc");
  ASSERT_NE(target, nullptr);
  const SystemConfig cfg{.n = 3, .t = 1};

  FuzzOptions options;
  options.budget = 200;
  options.campaign.jobs = 1;
  const FuzzReport report = fuzz_target(*target, cfg, options);
  ASSERT_TRUE(report.first.has_value()) << "fuzzer must find the known bug";
  const ReproCase& find = report.first->repro;

  KernelOptions kernel;
  kernel.model = target->model;
  kernel.max_rounds = 64;
  const ViolationPredicate violated = find_check(target->check);
  const auto fails = [&](const SystemConfig& config,
                         const std::vector<Value>& proposals,
                         const RunSchedule& schedule) {
    RunContext ctx(config, kernel);
    const RunResult& r = ctx.run(target->factory, proposals, schedule);
    return r.validation.ok() && violated(r, ctx.algorithms()).has_value();
  };

  // The minimized schedule still fails...
  ASSERT_TRUE(fails(find.config(), find.proposals, find.schedule));
  EXPECT_LE(find.schedule.planned_rounds(), 4);
  EXPECT_LE(total_events(find.schedule),
            total_events(report.first->original));

  // ...and every single-event deletion un-breaks it.
  for (Round k = 1; k <= find.schedule.last_planned_round(); ++k) {
    const RoundPlan& plan = find.schedule.plan(k);
    for (std::size_t i = 0; i < plan.crashes().size(); ++i) {
      RunSchedule candidate = find.schedule;
      RoundPlan rebuilt;
      for (std::size_t j = 0; j < plan.crashes().size(); ++j) {
        if (j != i) rebuilt.add_crash(plan.crashes()[j]);
      }
      for (const RoundPlan::Override& o : plan.overrides()) {
        rebuilt.set_fate(o.sender, o.receiver, o.fate);
      }
      candidate.plan(k) = rebuilt;
      EXPECT_FALSE(fails(find.config(), find.proposals, candidate))
          << "crash " << i << " of round " << k << " is not load-bearing";
    }
    for (std::size_t i = 0; i < plan.overrides().size(); ++i) {
      RunSchedule candidate = find.schedule;
      RoundPlan rebuilt;
      for (const CrashEvent& c : plan.crashes()) rebuilt.add_crash(c);
      for (std::size_t j = 0; j < plan.overrides().size(); ++j) {
        if (j != i) {
          rebuilt.set_fate(plan.overrides()[j].sender,
                           plan.overrides()[j].receiver,
                           plan.overrides()[j].fate);
        }
      }
      candidate.plan(k) = rebuilt;
      EXPECT_FALSE(fails(find.config(), find.proposals, candidate))
          << "override " << i << " of round " << k << " is not load-bearing";
    }
  }
}

TEST(Shrink, DropsNonLoadBearingByzantineEvents) {
  // Byzantine events shrink like crashes: each one is droppable on its own,
  // and the liar budget re-derives from whoever still lies afterward.
  const SystemConfig cfg{.n = 7, .t = 2};
  ScheduleBuilder b(cfg);
  b.lie(3, 1, -9, 0);
  b.equivocate(3, 2, -1, 1);
  b.forge(5, 2, 1, 0, Value{-9});
  b.silence(5, 3);
  b.byzantine_budget(2);
  b.gst(4);
  // Only p3's round-1 lie is load-bearing.
  const ShrinkTest still_fails = [](const SystemConfig&,
                                    const std::vector<Value>&,
                                    const RunSchedule& s) {
    for (const ByzantineEvent& e : s.plan(1).byzantine()) {
      if (e.kind == LieKind::Lie && e.liar == 3) return true;
    }
    return false;
  };
  const ShrinkResult r = shrink_schedule(cfg, distinct_proposals(cfg.n),
                                         b.build(), still_fails);
  long byz_events = 0;
  for (Round k = 1; k <= r.schedule.last_planned_round(); ++k) {
    byz_events += static_cast<long>(r.schedule.plan(k).byzantine().size());
  }
  EXPECT_EQ(byz_events, 1);
  EXPECT_TRUE(r.schedule.byzantine_processes().contains(3));
  EXPECT_FALSE(r.schedule.byzantine_processes().contains(5));
  EXPECT_EQ(r.schedule.byzantine_budget(), 1)
      << "budget must re-derive from the surviving liars";
  EXPECT_EQ(r.schedule.gst(), 1);
}

TEST(Shrink, RespectsTheAttemptBudget) {
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  for (Round k = 1; k <= 8; ++k) b.lose(0, 1, k);
  long calls = 0;
  const ShrinkResult r = shrink_schedule(
      cfg, distinct_proposals(cfg.n), b.build(),
      [&](const SystemConfig&, const std::vector<Value>&,
          const RunSchedule&) {
        ++calls;
        return true;
      },
      /*max_attempts=*/5);
  EXPECT_LE(r.stats.attempts, 5);
  EXPECT_EQ(calls, r.stats.attempts);
}

TEST(Shrink, NeverAcceptsAPassingCandidate) {
  // With a predicate that always passes, the shrinker must return the
  // input unchanged.
  const SystemConfig cfg{.n = 4, .t = 1};
  ScheduleBuilder b(cfg);
  b.crash(0, 2).lose(1, 2, 1).gst(3);
  const RunSchedule original = b.build();
  const ShrinkResult r =
      shrink_schedule(cfg, distinct_proposals(cfg.n), original,
                      [](const SystemConfig&, const std::vector<Value>&,
                         const RunSchedule&) { return false; });
  EXPECT_EQ(r.schedule, original);
  EXPECT_EQ(r.config, cfg);
  EXPECT_EQ(r.stats.accepted, 0);
}

}  // namespace
}  // namespace indulgence
