// E6 — The <>S variant A_<>S (paper Fig. 3, Sect. 4 and 5.1).
//
// (a) Sect. 4 simulation: with the receipt-simulated detector, A_<>S is
//     behaviourally identical to A_{t+2} (decision vectors match run by
//     run over seeded random ES adversaries).
// (b) Fast decision survives: A_<>S decides at t+2 in synchronous runs.
// (c) Robustness: scripted detector lies (false suspicions unexplainable
//     by message timing) never break consensus.

#include "bench_util.hpp"
#include "core/at2_ds.hpp"
#include "core/price.hpp"

int main() {
  using namespace indulgence;
  bench::print_header(
      "E6 — A_<>S (Fig. 3)",
      "receipt-simulated <>S == A_{t+2}; fast decision t+2 retained;\n"
      "scripted detector lies tolerated");

  bool ok = true;

  // (a) behavioural equivalence under the Sect. 4 simulation.
  {
    const SystemConfig cfg{.n = 5, .t = 2};
    int identical = 0;
    const int total = 400;
    for (std::uint64_t seed = 1; seed <= total; ++seed) {
      RandomEsOptions opt;
      opt.gst = 1 + static_cast<Round>(seed % 7);
      RandomEsAdversary adv_a(cfg, opt, seed);
      RunResult a = run_and_check(cfg, bench::es_options(),
                                  bench::default_at2(),
                                  distinct_proposals(cfg.n), adv_a);
      RandomEsAdversary adv_b(cfg, opt, seed);
      RunResult b = run_and_check(
          cfg, bench::es_options(),
          at2_ds_factory(hurfin_raynal_factory(), receipt_detector_factory()),
          distinct_proposals(cfg.n), adv_b);
      bool same = a.validation.ok() && b.validation.ok();
      for (ProcessId pid = 0; pid < cfg.n && same; ++pid) {
        same = a.trace.decision_of(pid) == b.trace.decision_of(pid);
      }
      if (same) ++identical;
    }
    ok &= identical == total;
    Table t({"random ES runs", "identical decision vectors", "match"});
    t.add(total, identical, bench::check_mark(identical == total));
    t.print(std::cout, "E6.A: Sect. 4 simulation (A_<>S == A_{t+2})");
  }

  // (b) fast decision in synchronous runs.
  {
    Table t({"n", "t", "worst sync round", "paper (t+2, relay t+3)",
             "match"});
    for (const SystemConfig cfg :
         {SystemConfig{5, 2}, SystemConfig{7, 3}, SystemConfig{9, 4}}) {
      const Round worst =
          worst_case_sync_decision_round(
              cfg, bench::es_options(),
              at2_ds_factory(hurfin_raynal_factory(),
                             receipt_detector_factory()),
              all_hostile_sync_schedules(cfg), {distinct_proposals(cfg.n)})
              .max_round;
      const Price paper = price(PriceRow::At2DS, cfg, cfg.t);
      const bool match = worst >= paper.round && worst <= paper.latest();
      ok &= match;
      t.add(cfg.n, cfg.t, worst,
            std::to_string(paper.round) + ".." +
                std::to_string(paper.latest()),
            bench::check_mark(match));
    }
    t.print(std::cout, "E6.B: A_<>S fast decision in synchronous runs");
  }

  // (c) scripted lies.
  {
    const SystemConfig cfg{.n = 7, .t = 3};
    int safe = 0;
    const int total = 200;
    for (std::uint64_t seed = 1; seed <= total; ++seed) {
      RandomEsOptions opt;
      opt.gst = 1 + static_cast<Round>(seed % 5);
      RandomEsAdversary adversary(cfg, opt, seed * 3 + 1);
      AlgorithmFactory factory =
          [&, seed](ProcessId self,
                    const SystemConfig& c) -> std::unique_ptr<RoundAlgorithm> {
        std::map<Round, ProcessSet> lies;
        Rng rng(seed * 977 + self);
        for (Round k = 1; k <= c.t + 1; ++k) {
          ProcessSet s;
          for (ProcessId pid = 0; pid < c.n; ++pid) {
            if (pid != self && rng.chance(1, 4)) s.insert(pid);
          }
          lies[k] = s;
        }
        return std::make_unique<At2DS>(self, c, hurfin_raynal_factory(),
                                       scripted_detector_factory(lies),
                                       At2Options{});
      };
      RunResult r = run_and_check(cfg, bench::es_options(), factory,
                                  distinct_proposals(cfg.n), adversary);
      if (r.validation.ok() && r.agreement && r.validity && r.termination) {
        ++safe;
      }
    }
    ok &= safe == total;
    Table t({"runs with scripted detector lies", "consensus held", "match"});
    t.add(total, safe, bench::check_mark(safe == total));
    t.print(std::cout, "E6.C: robustness to arbitrary false suspicions");
  }

  std::cout << (ok ? "E6 REPRODUCED.\n" : "E6 MISMATCH.\n");
  return ok ? 0 : 1;
}
