// E1 — The price of indulgence (paper R2, R4, R5; Sect. 1.3-1.4).
//
// Worst-case global decision round over hostile synchronous schedules, per
// algorithm and (n, t):
//
//   FloodSet   (SCS,     non-indulgent)  -> t + 1
//   FloodSetWS (P-based, non-indulgent)  -> t + 1
//   A_{t+2}    (ES,      indulgent)      -> t + 2     <- the paper's result
//   A_<>S      (<>S,     indulgent)      -> t + 2
//   Hurfin-Raynal (<>S,  indulgent)      -> 2t + 2    <- prior state of art
//   Chandra-Toueg (<>S,  indulgent)      -> 4t + 4
//
// "Roughly speaking, the price of indulgence is one round."

#include <vector>

#include "bench_util.hpp"
#include "consensus/chandra_toueg.hpp"
#include "consensus/floodset.hpp"
#include "consensus/floodset_ws.hpp"
#include "core/at2_ds.hpp"
#include "core/price.hpp"

namespace indulgence {
namespace {

using bench::check_mark;

struct Row {
  std::string algorithm;
  std::string model;
  AlgorithmFactory factory;
  PriceRow bound;
  bool scs = false;                     ///< run under SCS semantics
  std::vector<RunSchedule> extra;       ///< algorithm-specific worst cases
};

Round worst_case(const SystemConfig& cfg, const Row& row) {
  std::vector<RunSchedule> schedules = all_hostile_sync_schedules(cfg);
  schedules.insert(schedules.end(), row.extra.begin(), row.extra.end());
  return worst_case_sync_decision_round(
             cfg, row.scs ? bench::scs_options() : bench::es_options(),
             row.factory, schedules,
             {distinct_proposals(cfg.n), uniform_proposals(cfg.n, 7)})
      .max_round;
}

RunSchedule ct_assassin(const SystemConfig& cfg) {
  ScheduleBuilder b(cfg);
  for (int a = 0; a < cfg.t; ++a) b.crash(a, 4 * a + 1, true);
  return b.build();
}

}  // namespace
}  // namespace indulgence

int main() {
  using namespace indulgence;
  bench::print_header(
      "E1 — price of indulgence",
      "worst-case global decision round in synchronous runs\n"
      "paper claims: SCS/P algorithms t+1; A_{t+2}/A_<>S t+2 (tight);\n"
      "Hurfin-Raynal 2t+2; Chandra-Toueg-style 4t+4");

  Table table({"algorithm", "model", "n", "t", "worst sync round",
               "paper", "match"});
  bool all_match = true;

  for (const SystemConfig cfg :
       {SystemConfig{5, 1}, SystemConfig{5, 2}, SystemConfig{7, 3},
        SystemConfig{9, 4}, SystemConfig{11, 5}, SystemConfig{13, 6}}) {
    std::vector<Row> rows;
    rows.push_back({"FloodSet", "SCS", floodset_factory(), PriceRow::FloodSet,
                    true, {}});
    rows.push_back({"FloodSetWS", "P (sync runs)", floodset_ws_factory(),
                    PriceRow::FloodSetWS, false, {}});
    rows.push_back({"A_{t+2}", "ES", bench::default_at2(), PriceRow::At2,
                    false, {}});
    rows.push_back({"A_<>S", "<>S rounds",
                    at2_ds_factory(hurfin_raynal_factory(),
                                   receipt_detector_factory()),
                    PriceRow::At2DS, false, {}});
    rows.push_back({"Hurfin-Raynal", "<>S rounds", hurfin_raynal_factory(),
                    PriceRow::HurfinRaynal, false, {}});
    rows.push_back({"Chandra-Toueg", "<>S rounds", chandra_toueg_factory(),
                    PriceRow::ChandraToueg, false, {ct_assassin(cfg)}});

    for (const Row& row : rows) {
      const Round worst = worst_case(cfg, row);
      const Price paper = price(row.bound, cfg, cfg.t);
      const bool match = worst >= paper.round && worst <= paper.latest();
      all_match &= match;
      table.add(row.algorithm, row.model, cfg.n, cfg.t, worst, paper.round,
                check_mark(match));
    }
  }
  table.print(std::cout, "E1: worst-case synchronous decision rounds");
  std::cout << (all_match ? "E1 REPRODUCED: every round count matches the "
                            "paper's formula.\n"
                          : "E1 MISMATCH — see rows marked NO.\n");
  return all_match ? 0 : 1;
}
