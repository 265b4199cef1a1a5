#include "fuzz/generator.hpp"

#include <utility>

#include "sim/harness.hpp"

namespace indulgence {

RunSchedule record_adversary(const SystemConfig& config, Adversary& adversary,
                             Round rounds) {
  RunSchedule schedule(config);
  schedule.set_gst(adversary.gst());
  for (Round k = 1; k <= rounds; ++k) {
    RoundPlan plan = adversary.plan_round(k);
    if (plan.crashes().empty() && plan.overrides().empty()) continue;
    schedule.plan(k) = std::move(plan);
  }
  return schedule;
}

namespace {

/// GST is drawn uniformly from [1, kMaxGst] (ES runs only).
constexpr Round kMaxGst = 6;
/// The adversary stays active for gst + [0, kExtraRounds] rounds (SCS:
/// t + 2 + [0, kExtraRounds]); later rounds are failure-free and
/// synchronous.
constexpr Round kExtraRounds = 3;

/// One lie value: mostly hostile constants (negative values attack the
/// min-based crash algorithms; kBottom-adjacent ones probe the filters),
/// sometimes an honest-looking proposal.
Value random_lie_value(const SystemConfig& config, Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return -9;
    case 1: return -1;
    case 2: return 0;
    default: return rng.next_int(0, config.n - 1);
  }
}

/// Appends budgeted lie events to a recorded crash schedule.  Liars are
/// drawn from the non-crashed processes; per liar and round one of the five
/// lie classes fires with a per-run probability.  A forge draw sometimes
/// expands into a coordinated burst — the liar mutates its own copy to one
/// target AND forges every other id toward it with the same value — which
/// is the dictionary entry for identity-theft and copy-inflation attacks.
void append_byzantine(const SystemConfig& config, Rng& rng,
                      const FuzzGenOptions& options, RunSchedule& schedule) {
  const int budget = std::min(options.byz, (config.n - 1) / 3);
  if (budget <= 0) return;

  std::vector<ProcessId> candidates;
  const ProcessSet crashed = schedule.crashed_processes();
  for (ProcessId p = 0; p < config.n; ++p) {
    if (!crashed.contains(p)) candidates.push_back(p);
  }
  std::vector<ProcessId> liars;
  for (int i = 0; i < budget && !candidates.empty(); ++i) {
    const std::size_t pick = rng.next_below(candidates.size());
    liars.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  const double lie_prob = 0.2 + 0.6 * rng.next_double();
  // Lies must reach decision rounds: A_{t+2}^auth needs 3 rounds per view,
  // so the horizon extends well past the crash adversary's.
  const Round horizon = schedule.gst() + 3 + rng.next_int(3, 8);
  for (ProcessId liar : liars) {
    for (Round k = 1; k <= horizon; ++k) {
      if (rng.next_double() >= lie_prob) continue;
      const ProcessId victim_target =
          static_cast<ProcessId>(rng.next_int(0, config.n - 1));
      const ProcessId target =
          victim_target == liar ? -1 : victim_target;  // self => broadcast
      const Value value = random_lie_value(config, rng);
      switch (rng.next_below(8)) {
        case 0:
        case 1:
          // Equivocation needs a concrete split target (!= liar).
          schedule.plan(k).add_byzantine(
              {LieKind::Equivocate, liar,
               target < 0 ? (liar + 1) % config.n : target, -1, 0, value,
               true});
          break;
        case 2:
        case 3:
          schedule.plan(k).add_byzantine(
              {LieKind::Lie, liar, target, -1, 0, value, true});
          break;
        case 4:
        case 5: {
          if (rng.chance(1, 2) && target >= 0) {
            // Coordinated burst toward one target.
            schedule.plan(k).add_byzantine(
                {LieKind::Lie, liar, target, -1, 0, value, true});
            for (ProcessId victim = 0; victim < config.n; ++victim) {
              if (victim == liar || victim == target) continue;
              schedule.plan(k).add_byzantine({LieKind::Forge, liar, target,
                                              victim, 0, value, true});
            }
          } else {
            ProcessId victim =
                static_cast<ProcessId>(rng.next_int(0, config.n - 1));
            if (victim == liar) victim = (victim + 1) % config.n;
            schedule.plan(k).add_byzantine(
                {LieKind::Forge, liar, target, victim, 0, value, true});
          }
          break;
        }
        case 6:
          if (k >= 2) {
            schedule.plan(k).add_byzantine({LieKind::Replay, liar, target,
                                            -1, rng.next_int(1, k - 1), 0,
                                            false});
          }
          break;
        default:
          schedule.plan(k).add_byzantine(
              {LieKind::Silence, liar, target, -1, 0, 0, false});
          break;
      }
    }
  }
  schedule.set_byzantine_budget(budget);
}

}  // namespace

RunSchedule random_run_schedule(const SystemConfig& config, Model model,
                                Rng& rng, const FuzzGenOptions& options) {
  // Liars count against the resilience bound: crashes + liars <= t.
  const int max_crashes =
      options.byz > 0 ? std::max(0, config.t - options.byz) : -1;
  if (model == Model::SCS) {
    RandomScsOptions scs;
    scs.crash_prob = 0.2 + 0.6 * rng.next_double();
    scs.before_send_prob = rng.next_double();
    scs.crash_loss_prob = rng.next_double();
    scs.max_crashes = max_crashes;
    RandomScsAdversary adversary(config, scs, rng.next_u64());
    // Crashes only matter while the algorithms are still exchanging state:
    // t + 2 rounds covers every SCS algorithm in the repository.
    const Round horizon =
        config.t + 2 + rng.next_int(0, kExtraRounds);
    RunSchedule schedule = record_adversary(config, adversary, horizon);
    append_byzantine(config, rng, options, schedule);
    return schedule;
  }

  RandomEsOptions es;
  es.gst = 1 + rng.next_int(0, kMaxGst - 1);
  es.crash_prob = 0.1 + 0.5 * rng.next_double();
  es.before_send_prob = rng.next_double();
  es.laggard_prob = 0.3 + 0.6 * rng.next_double();
  es.delay_prob = 0.3 + 0.6 * rng.next_double();
  es.max_delay = 1 + rng.next_int(0, 3);
  es.crash_loss_prob = rng.next_double();
  es.allow_crash_delay = rng.chance(1, 2);
  es.max_crashes = max_crashes;
  RandomEsAdversary adversary(config, es, rng.next_u64());
  const Round horizon = es.gst + rng.next_int(0, kExtraRounds);
  RunSchedule schedule = record_adversary(config, adversary, horizon);
  append_byzantine(config, rng, options, schedule);
  return schedule;
}

std::vector<Value> random_proposals(const SystemConfig& config, Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
    case 1:
      return distinct_proposals(config.n);
    case 2: {
      std::vector<Value> reversed(config.n);
      for (int i = 0; i < config.n; ++i) reversed[i] = config.n - 1 - i;
      return reversed;
    }
    default: {
      std::vector<Value> shuffled = distinct_proposals(config.n);
      for (int i = config.n - 1; i > 0; --i) {
        const int j = rng.next_int(0, i);
        std::swap(shuffled[i], shuffled[j]);
      }
      return shuffled;
    }
  }
}

}  // namespace indulgence
