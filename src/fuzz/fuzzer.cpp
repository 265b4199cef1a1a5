#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <utility>

#include "fuzz/cli.hpp"
#include "sim/harness.hpp"

namespace indulgence {

namespace {

/// Lowest-run-index-wins monoid for the campaign reduce.
struct CellResult {
  long runs = 0;
  long invalid_runs = 0;
  long violations = 0;
  bool wall_cutoff = false;
  long first_index = -1;
  std::string first_description;

  void merge(const CellResult& other) {
    runs += other.runs;
    invalid_runs += other.invalid_runs;
    violations += other.violations;
    wall_cutoff = wall_cutoff || other.wall_cutoff;
    if (other.first_index >= 0 &&
        (first_index < 0 || other.first_index < first_index)) {
      first_index = other.first_index;
      first_description = other.first_description;
    }
  }
};

}  // namespace

const char* to_string(FindingKind kind) {
  switch (kind) {
    case FindingKind::InvalidTrace: return "invalid-trace";
    case FindingKind::UnflaggedLoss: return "unflagged-loss";
    case FindingKind::Violation: return "violation";
    case FindingKind::Divergence: return "divergence";
  }
  return "?";
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t cell_seed(std::string_view stream, const SystemConfig& config,
                        std::uint64_t seed) {
  return seed ^ fnv1a(stream) ^ (static_cast<std::uint64_t>(config.n) << 32) ^
         static_cast<std::uint64_t>(config.t);
}

void claim_and_shrink(const FuzzTarget& target, FuzzFinding& finding,
                      bool shrink) {
  ReproCase& repro = finding.repro;
  finding.original = repro.schedule;
  const ReplayVerdict claim = replay_repro(target, repro);
  repro.expect_invalid = !claim.model_valid;
  repro.expect_violation = claim.model_valid && claim.violation;
  if (!shrink || !(repro.expect_invalid || repro.expect_violation)) return;

  const ShrinkTest still_matches = [&](const SystemConfig& config,
                                       const std::vector<Value>& proposals,
                                       const RunSchedule& candidate) {
    // A smaller system the algorithm rejects reproduces nothing.
    if (config != repro.config() && rejection(target, config)) return false;
    ReproCase shrunk = repro;
    shrunk.proposals = proposals;
    shrunk.schedule = candidate;
    return replay_repro(target, shrunk).matches();
  };
  ShrinkResult shrunk = shrink_schedule(repro.config(), repro.proposals,
                                        repro.schedule, still_matches);
  repro.proposals = std::move(shrunk.proposals);
  repro.schedule = std::move(shrunk.schedule);
  finding.shrink_stats = shrunk.stats;
}

RunSchedule fuzz_run_schedule(const FuzzTarget& target, SystemConfig config,
                              std::uint64_t seed, long run_index,
                              const FuzzGenOptions& gen,
                              std::vector<Value>* proposals_out) {
  Rng rng = Rng::for_stream(cell_seed(target.name, config, seed),
                            static_cast<std::uint64_t>(run_index));
  std::vector<Value> proposals = random_proposals(config, rng);
  RunSchedule schedule = random_run_schedule(config, target.model, rng, gen);
  if (proposals_out) *proposals_out = std::move(proposals);
  return schedule;
}

FuzzReport fuzz_target(const FuzzTarget& target, SystemConfig config,
                       const FuzzOptions& options) {
  config.validate();
  KernelOptions kernel_options;
  kernel_options.model = target.model;
  kernel_options.max_rounds = options.max_rounds;
  const ViolationPredicate violated = find_check(target.check);

  const CellResult cell = parallel_reduce<CellResult>(
      options.budget, options.campaign.resolved_chunk(25),
      options.campaign.resolved_jobs(), CellResult{},
      [&](long, long begin, long end) {
        CellResult partial;
        RunContext ctx(config, kernel_options);
        for (long i = begin; i < end; ++i) {
          if (options.deadline &&
              std::chrono::steady_clock::now() >= *options.deadline) {
            partial.wall_cutoff = true;
            break;
          }
          std::vector<Value> proposals;
          const RunSchedule schedule = fuzz_run_schedule(
              target, config, options.seed, i, options.gen, &proposals);
          const RunResult& r = ctx.run(target.factory, proposals, schedule);
          ++partial.runs;
          if (!r.validation.ok()) {
            // The generator promises model-valid schedules; an invalid run
            // is a generator bug, never the algorithm's fault.
            ++partial.invalid_runs;
            continue;
          }
          if (auto what = violated(r, ctx.algorithms())) {
            ++partial.violations;
            if (partial.first_index < 0) {
              partial.first_index = i;
              partial.first_description = *what;
            }
          }
        }
        return partial;
      });

  FuzzReport report;
  report.target = target.name;
  report.config = config;
  report.expect_safe = target.expect_safe;
  report.byz = options.gen.byz;
  report.expectation =
      options.gen.byz > 0
          ? target.byz
          : (target.expect_safe ? ByzExpectation::Survives
                                : ByzExpectation::Breaks);
  report.runs = cell.runs;
  report.invalid_runs = cell.invalid_runs;
  report.violations = cell.violations;
  report.wall_cutoff = cell.wall_cutoff;
  if (cell.first_index < 0) return report;

  DriverOptions sweep;
  sweep.algo = target.name;
  sweep.seed = options.seed;
  sweep.n = config.n;
  sweep.t = config.t;
  sweep.byz = options.gen.byz;
  FuzzFinding finding{.run_index = cell.first_index,
                      .description = cell.first_description};
  finding.repro.algo = target.name;
  finding.repro.max_rounds = options.max_rounds;
  finding.repro.comment = "minimized fuzz find: " + finding.description +
                          "\nregenerate: " + command_line(sweep) +
                          " (run index " + std::to_string(cell.first_index) +
                          ")";
  finding.repro.schedule =
      fuzz_run_schedule(target, config, options.seed, cell.first_index,
                        options.gen, &finding.repro.proposals);
  claim_and_shrink(target, finding, options.shrink);
  report.first = std::move(finding);
  return report;
}

}  // namespace indulgence
