// X4 — the paper's open problem, probed empirically (Sect. 6).
//
// "A simple modification of the proof of Proposition 1 implies that ...
//  every consensus algorithm in ES has a run synchronous after round k,
//  with at most f crashes after round k, where some process decides at
//  round k + f + 2 or at a higher round.  Whether the above bound is tight
//  is an open question ... Closing the gap for n/3 <= t < n/2 is an open
//  problem."  (A_{f+2} closes it only for t < n/3.)
//
// We measure what the t < n/2 algorithms in this repository actually
// achieve in that regime: with the camp-splitting blocking prefix of E8
// adapted to majority-resilience (t = 2 hides per receiver) and f crashes
// after GST, what is the worst observed global decision round?  The gap
// between the k+f+2 lower bound and the best measured algorithm is the
// open territory.

#include <sstream>

#include "bench_util.hpp"
#include "consensus/chandra_toueg.hpp"
#include "core/price.hpp"
#include "lb/explorer.hpp"

namespace indulgence {
namespace {

// n = 5, t = 2 (n/3 <= t < n/2): every receiver may miss at most 2 senders
// per round.  Camps (camp_split_prefix): A = {p0, p4} holds value 0, B =
// {p1, p2, p3} holds 1.  Camp-A receivers miss p1, p2; camp-B receivers
// miss p0, p4.  Every receiver gets exactly n - t = 3 current-round
// messages.  After GST = k + 1, p0 then p1 (the camp leaders) crash at
// rounds k + 1 and k + 3, every delivery pattern of their last message
// searched.
WorstCaseResult worst_decision(const SystemConfig& cfg,
                               const AlgorithmFactory& factory, Round k, int f,
                               const CampaignOptions& campaign) {
  ScheduleBuilder prefix(cfg);
  camp_split_prefix(prefix, cfg, k, ProcessSet{0, 4});
  std::vector<CrashSlot> slots;
  for (int a = 0; a < f; ++a) slots.push_back({a, k + 2 * a + 1});
  return worst_case_over_deliveries(
      cfg, factory, distinct_proposals(cfg.n), slots,
      /*exhaustive_limit=*/1 << 16, /*samples=*/4096, /*seed=*/1,
      /*max_rounds=*/512, campaign, &prefix);
}

}  // namespace
}  // namespace indulgence

int main() {
  using namespace indulgence;
  bench::print_header(
      "X4 — the open gap: eventual fast decision for n/3 <= t < n/2",
      "lower bound k+f+2 (Sect. 6); A_{f+2} needs t < n/3; what do the\n"
      "majority-resilient algorithms achieve?");

  const SystemConfig cfg{.n = 5, .t = 2};  // n/3 <= t < n/2
  bool ok = true;
  const CampaignOptions campaign = bench::bench_campaign();
  const bench::Stopwatch watch;
  long total_runs = 0;

  struct Row {
    std::string name;
    AlgorithmFactory factory;
  };
  const std::vector<Row> rows = {
      {"A_{t+2}", bench::default_at2()},
      {"HurfinRaynal", hurfin_raynal_factory()},
      {"ChandraToueg", chandra_toueg_factory()},
  };

  Table table({"algorithm", "k", "f", "worst measured", "lower bound k+f+2",
               "excess", "note"});
  for (const Row& row : rows) {
    for (Round k : {0, 3, 6}) {
      for (int f = 0; f <= cfg.t; ++f) {
        const WorstCaseResult stats =
            worst_decision(cfg, row.factory, k, f, campaign);
        ok &= stats.all_ok;
        total_runs += stats.runs;
        const Round worst = stats.worst_decision_round;
        const Round bound = price(PriceRow::LowerBound, cfg, f, k).round;
        const bool early = worst < k + 2;
        std::ostringstream excess;
        if (worst > bound) excess << '+';
        excess << std::max(worst - bound, 0);
        table.add(row.name, k, f, worst, bound, excess.str(),
                  early ? "decided inside the async prefix" : "");
      }
    }
  }
  table.print(std::cout,
              "X4: n = 5, t = 2 (majority resilience), camp-splitting "
              "prefix + exhaustive\ncrash delivery patterns");
  std::cout
      << "Reading (two-sided honesty):\n"
         "  * where 'excess' > 0 the adversary pushed the algorithm past\n"
         "    the k+f+2 lower bound — at n/3 <= t < n/2 none of these\n"
         "    algorithms tracks the bound under hostile crash placement\n"
         "    (k = 0 rows: HR pays 2f+2, CT pays 4f+4).\n"
         "  * rows noted 'decided inside the async prefix' mean THIS\n"
         "    blocking prefix fails to delay that algorithm: A_{t+2}'s\n"
         "    Halt exchange turns the stable camp pattern into BOTTOM\n"
         "    estimates and its underlying module settles matters during\n"
         "    the asynchronous period.  The >= k+f+2 run the lower bound\n"
         "    promises lives elsewhere in run space; exhibiting an\n"
         "    ALGORITHM that never exceeds k+f+2 here is exactly the\n"
         "    paper's open problem.\n\n";
  std::cout << (ok ? "X4 OK (probe completed; gap reported above).\n"
                   : "X4 FAILED (a run broke consensus).\n");
  watch.report("X4 campaign", total_runs, campaign.resolved_jobs());
  return ok ? 0 : 1;
}
