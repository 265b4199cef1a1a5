// E5 — Failure-free optimization (paper Fig. 4, Sect. 5.2).
//
// With the optimization, A_{t+2} globally decides at round 2 in every
// failure-free synchronous run — matching the two-round lower bound of
// [11] for "well-behaved" runs — and falls back to the normal t+2 path the
// moment any suspicion appears in round 1.

#include "bench_util.hpp"
#include "core/price.hpp"

int main() {
  using namespace indulgence;
  bench::print_header(
      "E5 — failure-free optimization (Fig. 4)",
      "optimized A_{t+2}: 2 rounds when round 1 is a complete suspicion-\n"
      "free exchange (the [11] lower bound for well-behaved runs is 2)");

  bool ok = true;
  Table table({"n", "t", "scenario", "algorithm", "decision round",
               "expected", "match"});

  At2Options ff;
  ff.failure_free_opt = true;

  for (const SystemConfig cfg :
       {SystemConfig{5, 2}, SystemConfig{7, 3}, SystemConfig{9, 4},
        SystemConfig{13, 6}}) {
    const Round fast = price(PriceRow::At2FailureFree, cfg, 0).round;
    const Price at2 = price(PriceRow::At2, cfg, cfg.t);
    struct Case {
      std::string scenario;
      RunSchedule schedule;
      std::string algorithm;
      AlgorithmFactory factory;
      Round expected_lo;
      Round expected_hi;
    };
    const std::vector<Case> cases = {
        {"failure-free", failure_free_schedule(cfg), "A_{t+2}+ff",
         at2_factory(hurfin_raynal_factory(), ff), fast, fast},
        {"failure-free", failure_free_schedule(cfg), "A_{t+2} (no opt)",
         bench::default_at2(), at2.round, at2.round},
        {"one silent crash r1", crash_burst_schedule(cfg, 1, 1, true),
         "A_{t+2}+ff", at2_factory(hurfin_raynal_factory(), ff), at2.round,
         at2.latest()},
        {"staggered chain", staggered_chain_schedule(cfg, cfg.t),
         "A_{t+2}+ff", at2_factory(hurfin_raynal_factory(), ff), at2.round,
         at2.latest()},
    };
    for (const Case& c : cases) {
      RunResult r = run_and_check(cfg, bench::es_options(), c.factory,
                                  distinct_proposals(cfg.n), c.schedule);
      if (!r.ok()) {
        std::cout << "RUN FAILED: " << r.summary() << "\n"
                  << r.trace.to_string();
        return 1;
      }
      const Round round = *r.global_decision_round;
      const bool match = round >= c.expected_lo && round <= c.expected_hi;
      ok &= match;
      const std::string expected =
          c.expected_lo == c.expected_hi
              ? std::to_string(c.expected_lo)
              : std::to_string(c.expected_lo) + ".." +
                    std::to_string(c.expected_hi);
      table.add(cfg.n, cfg.t, c.scenario, c.algorithm, round, expected,
                bench::check_mark(match));
    }
  }
  table.print(std::cout, "E5: failure-free fast path vs fallback");
  std::cout << (ok ? "E5 REPRODUCED: 2-round failure-free decisions, clean "
                     "fallback under crashes.\n"
                   : "E5 MISMATCH.\n");
  return ok ? 0 : 1;
}
