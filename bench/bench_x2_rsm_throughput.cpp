// X2 — replicated-state-machine throughput (extension).
//
// The practical reading of the paper's results: what commit latency does a
// log replicated with each consensus algorithm achieve?  We pipeline slots
// (one new consensus instance every `window` rounds) and measure rounds per
// committed command in failure-free synchronous runs, plus behaviour under
// a crash and under an asynchronous spell.
//
//   * A_{t+2}+ff with window 1: ~1 round/command steady state (the Fig. 4
//     optimization is exactly what makes indulgent consensus cheap in the
//     common case);
//   * plain A_{t+2}: t+2-round latency, still 1/round pipelined;
//   * Hurfin-Raynal: 2-round latency in good runs, degrades with crashed
//     coordinators.
//
// The (algorithm, scenario) grid runs on the campaign engine; the table is
// identical at any job count, and timing goes to stderr.

#include "live_rsm_cell.hpp"

namespace indulgence {
namespace {

struct Measure {
  bool ok = false;
  Round last_commit = 0;
  double rounds_per_command = 0;
};

Measure measure(const SystemConfig& cfg, const AlgorithmFactory& slot_factory,
                Round window, int slots, Adversary& adversary,
                Round max_rounds) {
  RsmOptions opt;
  opt.num_slots = slots;
  opt.slot_window = window;
  KernelOptions kopt = bench::es_options(max_rounds);
  kopt.stop_on_global_decision = false;

  AlgorithmInstances instances;
  RunResult r = run_and_check(cfg, kopt,
                              rsm_factory(slot_factory, bench::streams(slots),
                                          opt),
                              distinct_proposals(cfg.n), adversary,
                              &instances);
  Measure m;
  if (!r.validation.ok()) return m;
  m.ok = true;
  for (const auto& instance : instances) {
    const auto* rep = dynamic_cast<const RsmReplica*>(instance.get());
    if (!rep) return {};
    if (r.trace.crashed().contains(
            static_cast<ProcessId>(&instance - instances.data()))) {
      continue;
    }
    if (!rep->all_slots_committed()) {
      m.ok = false;
      continue;
    }
    for (int s = 0; s < slots; ++s) {
      m.last_commit = std::max(m.last_commit, rep->commit_round(s));
    }
  }
  m.rounds_per_command = static_cast<double>(m.last_commit) / slots;
  return m;
}

}  // namespace
}  // namespace indulgence

int main() {
  using namespace indulgence;
  bench::print_header(
      "X2 — RSM throughput over the consensus algorithms",
      "pipelined log replication; rounds per committed command");

  const SystemConfig cfg{.n = 5, .t = 2};
  const int slots = 20;

  At2Options ff;
  ff.failure_free_opt = true;

  struct Config {
    std::string name;
    AlgorithmFactory factory;
    Round window;
  };
  const std::vector<Config> configs = {
      {"A_{t+2}+ff, window 1", at2_factory(hurfin_raynal_factory(), ff), 1},
      {"A_{t+2}+ff, window 2", at2_factory(hurfin_raynal_factory(), ff), 2},
      {"A_{t+2}, window 1", at2_factory(hurfin_raynal_factory()), 1},
      {"A_{t+2}, window t+3", at2_factory(hurfin_raynal_factory()),
       static_cast<Round>(cfg.t + 3)},
      {"HurfinRaynal, window 2", hurfin_raynal_factory(), 2},
  };
  const std::vector<std::string> scenarios = {"failure-free", "crash p0 @ r3",
                                              "async until r6"};

  const CampaignOptions campaign = bench::bench_campaign();
  const long total =
      static_cast<long>(configs.size() * scenarios.size());
  std::vector<Measure> results(static_cast<std::size_t>(total));
  bench::Stopwatch watch;
  parallel_for_chunked(
      total, campaign.resolved_chunk(1), campaign.resolved_jobs(),
      [&](long, long begin, long end) {
        for (long i = begin; i < end; ++i) {
          const Config& c =
              configs[static_cast<std::size_t>(i) / scenarios.size()];
          auto& out = results[static_cast<std::size_t>(i)];
          switch (static_cast<std::size_t>(i) % scenarios.size()) {
            case 0: {
              ScheduleAdversary adv(failure_free_schedule(cfg));
              out = measure(cfg, c.factory, c.window, slots, adv, 256);
              break;
            }
            case 1: {
              ScheduleBuilder b(cfg);
              b.crash(0, 3);
              ScheduleAdversary adv(b.build());
              out = measure(cfg, c.factory, c.window, slots, adv, 256);
              break;
            }
            case 2: {
              RandomEsOptions aopt;
              aopt.gst = 6;
              RandomEsAdversary adv(cfg, aopt, 4242);
              out = measure(cfg, c.factory, c.window, slots, adv, 512);
              break;
            }
          }
        }
      });

  bool ok = true;
  Table table({"slot algorithm", "scenario", "last commit round",
               "rounds/command"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measure& m = results[i];
    ok &= m.ok;
    table.add(configs[i / scenarios.size()].name,
              scenarios[i % scenarios.size()], m.last_commit,
              std::to_string(m.rounds_per_command).substr(0, 4));
  }
  table.print(std::cout, "X2: 20-command log, n = 5, t = 2");
  std::cout
      << "Reading: with the failure-free optimization and full pipelining\n"
         "the indulgent A_{t+2} commits ~1 command/round — the worst-case\n"
         "t+2 price (E1) is only paid when failures or asynchrony actually\n"
         "occur.\n\n";
  std::cout << (ok ? "X2 OK.\n" : "X2 FAILED.\n");
  watch.report("X2", total, campaign.resolved_jobs());
  return ok ? 0 : 1;
}
