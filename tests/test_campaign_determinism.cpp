// The campaign engine's headline contract: every sweep result — including
// WHICH schedule is reported as the worst case — is bit-identical at any
// job count and chunking, and jobs=1 is the sequential reference.

#include <gtest/gtest.h>

#include "consensus/floodset.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "lb/attack.hpp"
#include "lb/explorer.hpp"

namespace indulgence {
namespace {

AlgorithmFactory at2() { return at2_factory(hurfin_raynal_factory()); }

std::vector<CampaignOptions> job_variants() {
  std::vector<CampaignOptions> variants;
  CampaignOptions one;
  one.jobs = 1;
  variants.push_back(one);
  CampaignOptions four;
  four.jobs = 4;  // oversubscribed on small machines — deliberately
  variants.push_back(four);
  CampaignOptions autodetect;  // INDULGENCE_JOBS / hardware_concurrency
  variants.push_back(autodetect);
  CampaignOptions ragged = four;
  ragged.chunk = 3;  // non-default chunking must not change results either
  variants.push_back(ragged);
  return variants;
}

void expect_same_stats(const SyncRunExplorer::Stats& a,
                       const SyncRunExplorer::Stats& b,
                       const std::string& label) {
  EXPECT_EQ(a.runs, b.runs) << label;
  EXPECT_EQ(a.max_decision_round, b.max_decision_round) << label;
  EXPECT_EQ(a.min_decision_round, b.min_decision_round) << label;
  EXPECT_EQ(a.all_valid, b.all_valid) << label;
  EXPECT_EQ(a.all_agreement, b.all_agreement) << label;
  EXPECT_EQ(a.all_validity, b.all_validity) << label;
  EXPECT_EQ(a.all_terminated, b.all_terminated) << label;
  EXPECT_EQ(a.decision_values, b.decision_values) << label;
  ASSERT_EQ(a.worst_schedule.has_value(), b.worst_schedule.has_value())
      << label;
  if (a.worst_schedule) {
    EXPECT_TRUE(*a.worst_schedule == *b.worst_schedule) << label;
  }
}

TEST(Campaign, ExploreIsIdenticalAtAnyJobCount) {
  for (const SystemConfig cfg :
       {SystemConfig{.n = 4, .t = 1}, SystemConfig{.n = 5, .t = 2}}) {
    SyncRunExplorer explorer(cfg, at2(), distinct_proposals(cfg.n));
    CampaignOptions reference;
    reference.jobs = 1;
    const auto sequential = explorer.explore(cfg.t + 1, 64, reference);
    EXPECT_GT(sequential.runs, 0);
    ASSERT_TRUE(sequential.worst_schedule.has_value());
    for (const CampaignOptions& campaign : job_variants()) {
      const auto stats = explorer.explore(cfg.t + 1, 64, campaign);
      expect_same_stats(sequential, stats,
                        "n=" + std::to_string(cfg.n) +
                            " jobs=" + std::to_string(campaign.jobs) +
                            " chunk=" + std::to_string(campaign.chunk));
    }
  }
}

TEST(Campaign, WorstCaseOverDeliveriesExhaustiveIsIdentical) {
  const SystemConfig cfg{.n = 5, .t = 2};
  auto run = [&](CampaignOptions campaign) {
    return worst_case_over_deliveries(cfg, hurfin_raynal_factory(),
                                      distinct_proposals(cfg.n),
                                      {{0, 1}, {1, 3}},
                                      /*exhaustive_limit=*/1 << 16,
                                      /*samples=*/64, /*seed=*/1,
                                      /*max_rounds=*/64, campaign);
  };
  CampaignOptions reference;
  reference.jobs = 1;
  const WorstCaseResult sequential = run(reference);
  EXPECT_EQ(sequential.runs, 1L << 8);  // 2^(n-1) per slot, exhaustive
  ASSERT_TRUE(sequential.schedule.has_value());
  for (const CampaignOptions& campaign : job_variants()) {
    const WorstCaseResult w = run(campaign);
    EXPECT_EQ(w.runs, sequential.runs);
    EXPECT_EQ(w.worst_decision_round, sequential.worst_decision_round);
    EXPECT_EQ(w.all_ok, sequential.all_ok);
    ASSERT_TRUE(w.schedule.has_value());
    EXPECT_TRUE(*w.schedule == *sequential.schedule)
        << "jobs=" << campaign.jobs << " chunk=" << campaign.chunk;
  }
}

TEST(Campaign, WorstCaseOverDeliveriesSampledIsIdentical) {
  // Force sampling (exhaustive_limit=1): the sample list is pre-drawn from
  // Rng(seed) before partitioning, so every job count examines the same
  // patterns in the same positions.
  const SystemConfig cfg{.n = 5, .t = 2};
  auto run = [&](CampaignOptions campaign) {
    return worst_case_over_deliveries(cfg, hurfin_raynal_factory(),
                                      distinct_proposals(cfg.n),
                                      {{0, 1}, {1, 3}},
                                      /*exhaustive_limit=*/1,
                                      /*samples=*/200, /*seed=*/7,
                                      /*max_rounds=*/64, campaign);
  };
  CampaignOptions reference;
  reference.jobs = 1;
  const WorstCaseResult sequential = run(reference);
  EXPECT_EQ(sequential.runs, 200);
  for (const CampaignOptions& campaign : job_variants()) {
    const WorstCaseResult w = run(campaign);
    EXPECT_EQ(w.runs, sequential.runs);
    EXPECT_EQ(w.worst_decision_round, sequential.worst_decision_round);
    EXPECT_EQ(w.all_ok, sequential.all_ok);
    ASSERT_EQ(w.schedule.has_value(), sequential.schedule.has_value());
    if (sequential.schedule) {
      EXPECT_TRUE(*w.schedule == *sequential.schedule)
          << "jobs=" << campaign.jobs << " chunk=" << campaign.chunk;
    }
  }
}

TEST(Campaign, WorstCaseSyncDecisionRoundIsIdentical) {
  const SystemConfig cfg{.n = 4, .t = 1};
  const std::vector<RunSchedule> schedules =
      hostile_sync_schedules(cfg, cfg.t);
  const std::vector<std::vector<Value>> proposals = {
      distinct_proposals(cfg.n), {3, 1, 2, 0}};
  auto sweep = [&](const AlgorithmFactory& factory, CampaignOptions campaign) {
    return worst_case_sync_decision_round(cfg, KernelOptions{}, factory,
                                          schedules, proposals, campaign);
  };
  // Hurfin-Raynal's rounds spread from 2 failure-free (schedule 0) to
  // 2t + 2, so its min and max come from different schedules.
  const SyncSweep hr = sweep(hurfin_raynal_factory(), {.jobs = 1});
  EXPECT_EQ(hr.runs, static_cast<long>(schedules.size() * 2));
  EXPECT_EQ(hr.min_round, price(PriceRow::HurfinRaynal, cfg, 0).round);
  EXPECT_EQ(hr.max_round, price(PriceRow::HurfinRaynal, cfg, 1).round);
  EXPECT_EQ(hr.min_schedule, 0u);
  EXPECT_NE(hr.max_schedule, 0u);
  for (const CampaignOptions& campaign : job_variants()) {
    const SyncSweep w = sweep(hurfin_raynal_factory(), campaign);
    const std::string label = "jobs=" + std::to_string(campaign.jobs) +
                              " chunk=" + std::to_string(campaign.chunk);
    EXPECT_EQ(w.runs, hr.runs) << label;
    EXPECT_EQ(w.min_round, hr.min_round) << label;
    EXPECT_EQ(w.max_round, hr.max_round) << label;
    EXPECT_EQ(w.min_schedule, hr.min_schedule) << label;
    EXPECT_EQ(w.max_schedule, hr.max_schedule) << label;
    EXPECT_EQ(sweep(at2(), campaign).max_round,
              price(PriceRow::At2, cfg, cfg.t).round)
        << label;
  }
}

TEST(Campaign, AttackSearchReportsTheSameCounterexample) {
  // The truncated A_{t+2} always has a violation; the reported run (and
  // the run count) must not depend on the job count.
  const SystemConfig cfg{.n = 3, .t = 1};
  const AlgorithmFactory truncated =
      at2_truncated_factory(hurfin_raynal_factory());
  AttackOptions reference;
  reference.campaign.jobs = 1;
  const AttackResult sequential =
      search_agreement_violation(cfg, truncated, reference);
  ASSERT_TRUE(sequential.violation_found);
  ASSERT_TRUE(sequential.schedule.has_value());
  for (const CampaignOptions& campaign : job_variants()) {
    AttackOptions options;
    options.campaign = campaign;
    const AttackResult attack =
        search_agreement_violation(cfg, truncated, options);
    ASSERT_TRUE(attack.violation_found);
    EXPECT_EQ(attack.runs_tried, sequential.runs_tried)
        << "jobs=" << campaign.jobs;
    EXPECT_EQ(attack.description, sequential.description);
    EXPECT_TRUE(*attack.schedule == *sequential.schedule);
    EXPECT_EQ(attack.proposals, sequential.proposals);
    EXPECT_EQ(attack.trace_dump, sequential.trace_dump);
  }
}

}  // namespace
}  // namespace indulgence
