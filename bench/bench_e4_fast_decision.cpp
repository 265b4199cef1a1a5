// E4 — Fast decision and elimination (paper Lemmas 12, 13, 6).
//
// Sweep of A_{t+2} over synchronous crash patterns: for every (n, t), every
// crash count f <= t, and every hostile schedule family, the global
// decision round is t+2 (t+3 at most when a crash at round t+2 starves a
// process into the DECIDE relay), agreement and validity hold, and at most
// one non-BOTTOM new estimate circulates.
//
// The (config, crash-count) cells are independent, so they are swept in
// parallel on the campaign engine; each worker keeps a reusable RunContext
// and fills its cell's row, and the rows are printed in cell order, so the
// table is identical at any job count.

#include <set>

#include "bench_util.hpp"
#include "core/price.hpp"

int main() {
  using namespace indulgence;
  bench::print_header(
      "E4 — fast decision sweep (Lemma 13) + elimination (Lemma 6)",
      "A_{t+2} decides at t+2 in every synchronous run, for every crash "
      "pattern");

  struct Cell {
    SystemConfig cfg;
    int crashes = 0;
  };
  std::vector<Cell> cells;
  for (const SystemConfig cfg :
       {SystemConfig{4, 1}, SystemConfig{5, 2}, SystemConfig{7, 3},
        SystemConfig{9, 4}, SystemConfig{11, 5}, SystemConfig{13, 6}}) {
    for (int crashes = 0; crashes <= cfg.t; ++crashes) {
      cells.push_back({cfg, crashes});
    }
  }

  struct Row {
    Round min_round = 1 << 20;
    Round max_round = 0;
    bool agreement = true;
    bool elimination = true;
    bool runs_ok = true;
    int count = 0;
  };
  std::vector<Row> rows(cells.size());

  const CampaignOptions campaign = bench::bench_campaign();
  const bench::Stopwatch watch;

  parallel_for_chunked(
      static_cast<long>(cells.size()), campaign.resolved_chunk(1),
      campaign.resolved_jobs(), [&](long /*chunk*/, long begin, long end) {
        for (long index = begin; index < end; ++index) {
          const Cell& cell = cells[static_cast<std::size_t>(index)];
          Row& row = rows[static_cast<std::size_t>(index)];
          RunContext ctx(cell.cfg, bench::es_options());
          for (const RunSchedule& schedule :
               hostile_sync_schedules(cell.cfg, cell.crashes)) {
            const RunResult& r =
                ctx.run(bench::default_at2(),
                        distinct_proposals(cell.cfg.n), schedule);
            ++row.count;
            row.runs_ok &= r.ok();
            row.agreement &= r.agreement && r.validity;
            if (r.global_decision_round) {
              row.min_round = std::min(row.min_round,
                                       *r.global_decision_round);
              row.max_round = std::max(row.max_round,
                                       *r.global_decision_round);
            }
            std::set<Value> non_bottom;
            for (const auto& instance : ctx.algorithms()) {
              const auto* p = dynamic_cast<const At2*>(instance.get());
              if (p && p->new_estimate() && *p->new_estimate() != kBottom) {
                non_bottom.insert(*p->new_estimate());
              }
            }
            row.elimination &= non_bottom.size() <= 1;
          }
        }
      });

  bool ok = true;
  long total_runs = 0;
  Table table({"n", "t", "crashes", "schedules", "min round", "max round",
               "t+2", "agreement", "elimination"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const Row& row = rows[i];
    const Price paper = price(PriceRow::At2, cell.cfg, cell.crashes);
    const bool round_ok =
        row.min_round >= paper.round && row.max_round <= paper.latest();
    ok &= row.runs_ok && round_ok && row.agreement && row.elimination;
    total_runs += row.count;
    table.add(cell.cfg.n, cell.cfg.t, cell.crashes, row.count, row.min_round,
              row.max_round, bench::check_mark(round_ok),
              bench::check_mark(row.agreement),
              bench::check_mark(row.elimination));
  }
  table.print(std::cout, "E4: A_{t+2} under every hostile schedule family");
  std::cout << (ok ? "E4 REPRODUCED: decision at t+2 (relay t+3 at worst), "
                     "elimination never violated.\n"
                   : "E4 MISMATCH.\n");
  watch.report("E4 campaign", total_runs, campaign.resolved_jobs());
  return ok ? 0 : 1;
}
