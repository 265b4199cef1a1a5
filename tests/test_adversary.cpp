// Random adversaries must produce model-conforming runs BY CONSTRUCTION —
// for every seed, the independent validator must accept the trace produced
// under them, for every algorithm family.

#include <gtest/gtest.h>

#include "consensus/floodset.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

TEST(RandomEsAdversary, TracesAreAlwaysModelValid) {
  const SystemConfig cfg{.n = 6, .t = 2};
  KernelOptions opt{.max_rounds = 64};
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    RandomEsOptions aopt;
    aopt.gst = 1 + static_cast<Round>(seed % 10);
    RandomEsAdversary adversary(cfg, aopt, seed);
    RunResult r = run_and_check(cfg, opt,
                                at2_factory(hurfin_raynal_factory()),
                                distinct_proposals(cfg.n), adversary);
    ASSERT_TRUE(r.validation.ok())
        << "seed " << seed << "\n" << r.validation.to_string() << "\n"
        << r.trace.to_string();
  }
}

TEST(RandomEsAdversary, RespectsCrashBudget) {
  const SystemConfig cfg{.n = 6, .t = 2};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    RandomEsOptions aopt;
    aopt.crash_prob = 0.9;  // try hard to over-crash
    RandomEsAdversary adversary(cfg, aopt, seed);
    for (Round k = 1; k <= 32; ++k) (void)adversary.plan_round(k);
    EXPECT_LE(adversary.crashed().size(), cfg.t);
  }
}

TEST(RandomEsAdversary, MaxCrashesZeroMeansNoCrashes) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RandomEsOptions aopt;
  aopt.max_crashes = 0;
  aopt.crash_prob = 1.0;
  RandomEsAdversary adversary(cfg, aopt, 99);
  for (Round k = 1; k <= 16; ++k) {
    EXPECT_TRUE(adversary.plan_round(k).crashes().empty());
  }
}

TEST(RandomEsAdversary, PostGstRoundsHaveNoDelaysFromLiveSenders) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RandomEsOptions aopt;
  aopt.gst = 4;
  aopt.allow_crash_delay = false;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    RandomEsAdversary adversary(cfg, aopt, seed);
    for (Round k = 1; k <= 12; ++k) {
      const RoundPlan plan = adversary.plan_round(k);
      if (k < aopt.gst) continue;
      for (const auto& o : plan.overrides()) {
        EXPECT_NE(o.fate.kind, FateKind::Delay)
            << "seed " << seed << " round " << k;
      }
    }
  }
}

TEST(RandomScsAdversary, TracesAreAlwaysModelValid) {
  const SystemConfig cfg{.n = 6, .t = 2};
  KernelOptions opt{.model = Model::SCS, .max_rounds = 32};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RandomScsAdversary adversary(cfg, {}, seed);
    RunResult r = run_and_check(cfg, opt, floodset_factory(),
                                distinct_proposals(cfg.n), adversary);
    ASSERT_TRUE(r.validation.ok())
        << "seed " << seed << "\n" << r.validation.to_string();
    ASSERT_TRUE(r.agreement && r.validity && r.termination)
        << "seed " << seed << "\n" << r.trace.to_string();
    EXPECT_EQ(*r.global_decision_round,
              price(PriceRow::FloodSet, cfg, cfg.t).round);
  }
}

TEST(ScheduleAdversary, ReplaysItsSchedule) {
  const SystemConfig cfg{.n = 5, .t = 2};
  ScheduleBuilder b(cfg);
  b.crash(1, 2).lose(3, 4, 1).gst(3);
  ScheduleAdversary adversary(b.build());
  EXPECT_EQ(adversary.gst(), 3);
  EXPECT_EQ(adversary.plan_round(1).fate(3, 4), Fate::lose());
  EXPECT_TRUE(adversary.plan_round(2).crashes_process(1));
  EXPECT_TRUE(adversary.plan_round(5).crashes().empty());
}

}  // namespace
}  // namespace indulgence
