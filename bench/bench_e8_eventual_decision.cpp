// E8 — Eventual fast decision (paper Sect. 6, R9; Lemma 15, footnote 10).
//
// Runs synchronous after round k with f crashes after round k:
//   * A_{f+2} globally decides by k + f + 2 (Lemma 15);
//   * the AMR leader baseline has runs needing k + 2f + 2 (footnote 10) —
//     found by searching the delivery patterns of leader crashes placed in
//     its adopt rounds.
//
// Sweep: k in {0, 2, 4, 6, 8}, f in {0, 1, 2}; n = 8, t = 2 (t < n/3, and
// n >= 3t + 2 so a vote round can stay below AMR's adoption threshold).

#include "bench_util.hpp"
#include "consensus/amr_leader.hpp"
#include "core/af2.hpp"
#include "core/price.hpp"
#include "lb/explorer.hpp"

namespace indulgence {
namespace {

// The camp-splitting asynchronous prefix (camp_split_prefix) for n = 8,
// t = 2.  Rounds 1..k: camp A = {p0, p6, p7} converges on value 0, camp
// B = {p1..p5} on value 1.  Each camp-A receiver misses p1 and p2's round
// message; each camp-B receiver misses p0 and p6's (exactly t = 2 per
// receiver, so t-resilience holds).  Camp A's lowest-(n-t) view then splits
// 3/3 — below the n-2t = 4 adoption threshold and with minimum 0, so both
// the AMR keep-own rule and A_{f+2}'s min rule retain value 0 — while camp
// B sees five copies of 1 plus p7's 0: adopted, but never unanimous.  Both
// algorithms are pinned undecided until GST, as Lemma 15's "synchronous
// after round k" scenario requires, and crucially the two lowest-id
// processes (AMR's first two leaders) hold DIFFERENT values at GST, so
// post-GST leader crashes genuinely cost attempts.
//
// The crash slots sit in AMR's adopt rounds after GST = k + 1, with their
// delivery patterns left to the search.
WorstCaseResult worst_with_prefix(const SystemConfig& cfg,
                                  const AlgorithmFactory& factory, Round k,
                                  int f) {
  ScheduleBuilder prefix(cfg);
  camp_split_prefix(prefix, cfg, k, ProcessSet{0, 6, 7});
  std::vector<CrashSlot> slots;
  for (int a = 0; a < f; ++a) slots.push_back({a, k + 2 * a + 1});
  return worst_case_over_deliveries(
      cfg, factory, distinct_proposals(cfg.n), slots,
      /*exhaustive_limit=*/1 << 15, /*samples=*/1 << 15, /*seed=*/2024,
      /*max_rounds=*/256, bench::bench_campaign(), &prefix);
}

}  // namespace
}  // namespace indulgence

int main() {
  using namespace indulgence;
  bench::print_header(
      "E8 — eventual fast decision (Lemma 15 vs footnote 10)",
      "synchronous after round k, f crashes after k:\n"
      "A_{f+2} <= k+f+2; AMR has runs at k+2f+2");

  bool ok = true;
  const SystemConfig cfg{.n = 8, .t = 2};

  Table table({"k", "f", "A_{f+2} worst", "k+f+2", "AMR worst", "k+2f+2",
               "match"});
  for (Round k : {0, 2, 4, 6, 8}) {
    for (int f = 0; f <= cfg.t; ++f) {
      const WorstCaseResult af2 = worst_with_prefix(cfg, af2_factory(), k, f);
      const WorstCaseResult amr =
          worst_with_prefix(cfg, amr_leader_factory(), k, f);
      const Round af2_bound = price(PriceRow::Af2, cfg, f, k).round;
      const Round amr_bound = price(PriceRow::Amr, cfg, f, k).round;
      const bool all_ok = af2.all_ok && amr.all_ok;
      ok &= all_ok;
      const bool match = all_ok && af2.worst_decision_round <= af2_bound &&
                         amr.worst_decision_round == amr_bound;
      ok &= match;
      table.add(k, f, af2.worst_decision_round, af2_bound,
                amr.worst_decision_round, amr_bound,
                bench::check_mark(match));
    }
  }
  table.print(std::cout,
              "E8: n = 8, t = 2; exhaustive over leader-crash delivery "
              "patterns");
  std::cout << (ok ? "E8 REPRODUCED: one round per crash (A_{f+2}) vs one "
                     "two-round attempt per crash (AMR).\n"
                   : "E8 MISMATCH.\n");
  return ok ? 0 : 1;
}
