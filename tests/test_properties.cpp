// Cross-algorithm property matrix: every consensus algorithm in the
// repository, against every adversary class it is specified for, must keep
// validity, uniform agreement, and termination — and every produced trace
// must pass the independent model validator.  This is the repository's
// broadest randomized safety net.

#include <gtest/gtest.h>

#include "consensus/amr_leader.hpp"
#include "consensus/chandra_toueg.hpp"
#include "consensus/floodset.hpp"
#include "consensus/floodset_ws.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/af2.hpp"
#include "core/at2.hpp"
#include "core/at2_ds.hpp"
#include "core/price.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

struct AlgorithmCase {
  std::string name;
  AlgorithmFactory factory;
  bool needs_third;     ///< t < n/3 required
  bool es_safe;         ///< specified for ES (not just SCS/sync runs)
};

std::vector<AlgorithmCase> es_algorithms() {
  At2Options ff;
  ff.failure_free_opt = true;
  return {
      {"A_{t+2}", at2_factory(hurfin_raynal_factory()), false, true},
      {"A_{t+2}+ff", at2_factory(hurfin_raynal_factory(), ff), false, true},
      {"A_{t+2}/CT", at2_factory(chandra_toueg_factory()), false, true},
      {"A_<>S", at2_ds_factory(hurfin_raynal_factory(),
                               receipt_detector_factory()),
       false, true},
      {"A_{f+2}", af2_factory(), true, true},
      {"HurfinRaynal", hurfin_raynal_factory(), false, true},
      {"ChandraToueg", chandra_toueg_factory(), false, true},
      {"AMR", amr_leader_factory(), true, true},
  };
}

class EsPropertyMatrix
    : public ::testing::TestWithParam<std::tuple<int, int, Round>> {};

TEST_P(EsPropertyMatrix, AllAlgorithmsKeepConsensusUnderRandomEs) {
  const auto [n, t, gst] = GetParam();
  const SystemConfig cfg{.n = n, .t = t};
  KernelOptions options{.max_rounds = 400};

  for (const AlgorithmCase& algo : es_algorithms()) {
    if (algo.needs_third && !cfg.third_correct()) continue;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      RandomEsOptions aopt;
      aopt.gst = gst;
      RandomEsAdversary adversary(cfg, aopt,
                                  seed * 131 + n * 17 + t * 3 + gst);
      RunResult r = run_and_check(cfg, options, algo.factory,
                                  distinct_proposals(n), adversary);
      ASSERT_TRUE(r.validation.ok())
          << algo.name << " seed " << seed << "\n"
          << r.validation.to_string();
      ASSERT_TRUE(r.agreement)
          << algo.name << " seed " << seed << "\n" << r.trace.to_string();
      ASSERT_TRUE(r.validity)
          << algo.name << " seed " << seed << "\n" << r.trace.to_string();
      ASSERT_TRUE(r.termination)
          << algo.name << " seed " << seed << "\n" << r.trace.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EsPropertyMatrix,
    ::testing::Values(std::tuple{4, 1, 1}, std::tuple{4, 1, 6},
                      std::tuple{5, 2, 3}, std::tuple{7, 2, 5},
                      std::tuple{7, 3, 8}, std::tuple{10, 3, 4}));

TEST(PropertyMatrix, UniformProposalsAlwaysDecideThatValue) {
  // Strong validity corollary: when everyone proposes v, v is the only
  // possible decision — under any adversary, for every algorithm.
  const SystemConfig cfg{.n = 7, .t = 2};
  KernelOptions options{.max_rounds = 400};
  for (const AlgorithmCase& algo : es_algorithms()) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      RandomEsOptions aopt;
      aopt.gst = 1 + static_cast<Round>(seed % 7);
      RandomEsAdversary adversary(cfg, aopt, seed * 7 + 5);
      RunResult r = run_and_check(cfg, options, algo.factory,
                                  uniform_proposals(cfg.n, 77), adversary);
      ASSERT_TRUE(r.validation.ok()) << algo.name;
      for (const DecisionRecord& d : r.trace.decisions()) {
        ASSERT_EQ(d.value, 77)
            << algo.name << " seed " << seed << "\n" << r.trace.to_string();
      }
    }
  }
}

TEST(PropertyMatrix, SyncRunsOfEveryAlgorithmDecideWithinItsContract) {
  struct Contract {
    std::string name;
    AlgorithmFactory factory;
    PriceRow bound;
    bool needs_third;
  };
  const std::vector<Contract> contracts = {
      {"A_{t+2}", at2_factory(hurfin_raynal_factory()), PriceRow::At2, false},
      {"A_{f+2}", af2_factory(), PriceRow::Af2, true},
      {"HurfinRaynal", hurfin_raynal_factory(), PriceRow::HurfinRaynal, false},
      {"ChandraToueg", chandra_toueg_factory(), PriceRow::ChandraToueg, false},
      {"AMR", amr_leader_factory(), PriceRow::Amr, true},
      {"FloodSetWS", floodset_ws_factory(), PriceRow::FloodSetWS, false},
  };
  for (const SystemConfig cfg :
       {SystemConfig{5, 2}, SystemConfig{7, 2}, SystemConfig{9, 2}}) {
    const KernelOptions options{.max_rounds = 128};
    for (const Contract& c : contracts) {
      if (c.needs_third && !cfg.third_correct()) continue;
      const SyncSweep sweep = worst_case_sync_decision_round(
          cfg, options, c.factory, all_hostile_sync_schedules(cfg),
          {distinct_proposals(cfg.n)});
      EXPECT_LE(sweep.max_round, price(c.bound, cfg, cfg.t).latest())
          << c.name << " n=" << cfg.n;
    }
  }
}

TEST(PropertyMatrix, ScsAlgorithmsUnderRandomScsAdversaries) {
  const SystemConfig cfg{.n = 7, .t = 3};
  KernelOptions options{.model = Model::SCS, .max_rounds = 32};
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    RandomScsAdversary adversary(cfg, {}, seed);
    RunResult r = run_and_check(cfg, options, floodset_factory(),
                                distinct_proposals(cfg.n), adversary);
    ASSERT_TRUE(r.validation.ok()) << "seed " << seed;
    ASSERT_TRUE(r.agreement && r.validity && r.termination)
        << "seed " << seed << "\n" << r.trace.to_string();
    EXPECT_EQ(*r.global_decision_round,
              price(PriceRow::FloodSet, cfg, cfg.t).round);
  }
}

}  // namespace
}  // namespace indulgence
