// The lower bound, live: mount the Sect. 2 adversary against a consensus
// algorithm that tries to decide one round too early (A_{t+2} with Phase 1
// truncated to t rounds), and watch uniform agreement break in a perfectly
// legal eventually-synchronous run.  Then aim the same search at the real
// A_{t+2} and watch it come back empty-handed.
//
//   $ ./lower_bound_attack

#include <iostream>

#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "lb/attack.hpp"

int main() {
  using namespace indulgence;
  const SystemConfig config{.n = 3, .t = 1};

  // Decides at t+1: one round too greedy.
  const AlgorithmFactory too_fast =
      at2_truncated_factory(hurfin_raynal_factory());

  std::cout << "Hunting for an agreement violation against the t+1-round "
               "strawman...\n";
  const AttackResult broken = search_agreement_violation(config, too_fast);
  if (!broken.violation_found) {
    std::cout << "no violation found — that would contradict Proposition 1\n";
    return 1;
  }
  std::cout << "FOUND after " << broken.runs_tried << " runs: "
            << broken.description << "\n\nthe adversary:\n";
  for (std::size_t i = 0; i < broken.actions.size(); ++i) {
    std::cout << "  round " << i + 1 << ": " << broken.actions[i].to_string()
              << "\n";
  }
  std::cout << "\nthe violating run (validated against the ES model):\n"
            << broken.trace_dump << "\n";

  std::cout << "Now the same adversary space — one round deeper — against "
               "the real A_{t+2}...\n";
  AttackOptions deeper;
  deeper.action_rounds = config.t + 3;
  const AttackResult safe = search_agreement_violation(
      config, at2_factory(hurfin_raynal_factory()), deeper);
  std::cout << (safe.violation_found
                    ? "violation found?! (bug)"
                    : "no violation in " + std::to_string(safe.runs_tried) +
                          " runs — the extra round buys safety")
            << "\n";
  return safe.violation_found ? 1 : 0;
}
