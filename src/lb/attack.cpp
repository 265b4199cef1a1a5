#include "lb/attack.hpp"

#include <atomic>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/at2.hpp"

namespace indulgence {

std::optional<std::string> agreement_or_validity_violation(
    const RunResult& r, const AlgorithmInstances&) {
  if (!r.agreement) {
    std::ostringstream os;
    os << "uniform agreement violated: decisions";
    for (const DecisionRecord& d : r.trace.decisions()) {
      os << " p" << d.pid << "=" << d.value << "@r" << d.round;
    }
    return os.str();
  }
  if (!r.validity) {
    return "validity violated: a decided value was never proposed";
  }
  return std::nullopt;
}

std::optional<std::string> elimination_violation(
    const RunResult&, const AlgorithmInstances& instances) {
  std::set<Value> non_bottom;
  for (const auto& instance : instances) {
    const auto* p = dynamic_cast<const At2*>(instance.get());
    if (p && p->new_estimate() && *p->new_estimate() != kBottom) {
      non_bottom.insert(*p->new_estimate());
    }
  }
  if (non_bottom.size() >= 2) {
    std::ostringstream os;
    os << "elimination property violated: distinct non-BOTTOM new estimates";
    for (Value v : non_bottom) os << " " << v;
    return os.str();
  }
  return std::nullopt;
}

AttackResult search_violation(SystemConfig config,
                              const AlgorithmFactory& factory,
                              AttackOptions options,
                              const ViolationPredicate& violated) {
  config.validate();
  AttackResult result;
  const Round action_rounds =
      options.action_rounds > 0 ? options.action_rounds : config.t + 2;

  std::vector<std::vector<Value>> proposal_vectors = options.proposal_vectors;
  if (proposal_vectors.empty()) {
    // Distinct proposals in id order plus the reverse: the reverse places
    // the minimum at the highest id, which several attacks need (a victim
    // whose value survives only at itself must not be first in sender
    // order, or deterministic tie-breaking hides the disagreement).
    proposal_vectors.push_back(distinct_proposals(config.n));
    std::vector<Value> reversed(config.n);
    for (int i = 0; i < config.n; ++i) reversed[i] = config.n - 1 - i;
    proposal_vectors.push_back(std::move(reversed));
  }

  KernelOptions kernel_options;
  kernel_options.model = Model::ES;
  kernel_options.max_rounds = options.max_rounds;

  const int jobs = options.campaign.resolved_jobs();
  const long chunk_size = options.campaign.resolved_chunk(1);
  constexpr long kNoWinner = std::numeric_limits<long>::max();

  // Shared across the proposal vectors so the budget is global, exactly as
  // in the sequential search.  `tried` counts claimed budget slots: the
  // speculative work of chunks that end up cancelled and, past max_runs,
  // claims that were refused.  The REPORTED count sums per-chunk tallies
  // only up to the winning chunk, which is the same at every job count.
  std::atomic<long> tried{0};
  long reported = 0;

  for (const std::vector<Value>& proposals : proposal_vectors) {
    // Partition by first-round action.  Early-stop propagation: `winner`
    // holds the lowest chunk index that found a violation; a chunk aborts
    // as soon as a LOWER-indexed chunk has won (its own subtree can no
    // longer contain the canonical counterexample), while lower chunks run
    // on, so the reported run is deterministic at any job count.
    const std::vector<AdversaryAction> first = enumerate_actions(
        config, ProcessSet::all(config.n), 0, /*allow_delays=*/true,
        options.delay_gap);
    std::atomic<long> winner{kNoWinner};
    std::mutex winner_mutex;
    const long total = static_cast<long>(first.size());
    const long chunks = total <= 0 ? 0 : (total + chunk_size - 1) / chunk_size;
    std::vector<long> chunk_tried(static_cast<std::size_t>(chunks), 0);

    parallel_for_chunked(
        total, chunk_size, jobs,
        [&](long chunk_index, long begin, long end) {
          RunContext ctx(config, kernel_options);
          for (long i = begin; i < end; ++i) {
            for_each_action_sequence_from(
                config, {first[static_cast<std::size_t>(i)]}, action_rounds,
                /*allow_delays=*/true, options.delay_gap,
                [&](const std::vector<AdversaryAction>& actions) {
                  if (winner.load(std::memory_order_relaxed) < chunk_index) {
                    return false;  // a lower subtree already won
                  }
                  // The increment takes the budget slot, so two workers
                  // can never both claim the last one.
                  if (tried.fetch_add(1, std::memory_order_relaxed) >=
                      options.max_runs) {
                    return false;  // budget exhausted
                  }
                  ++chunk_tried[static_cast<std::size_t>(chunk_index)];
                  const RunSchedule schedule =
                      schedule_from_actions(config, actions);
                  const RunResult& r =
                      ctx.run(factory, proposals, schedule);
                  if (!r.validation.ok()) {
                    // Impossible by construction; never blame the algorithm
                    // for a run outside the model.
                    return true;
                  }
                  if (auto what = violated(r, ctx.algorithms())) {
                    std::lock_guard<std::mutex> lock(winner_mutex);
                    if (chunk_index < winner.load()) {
                      winner.store(chunk_index);
                      result.violation_found = true;
                      result.description = *what;
                      result.schedule = schedule;
                      result.actions = actions;
                      result.proposals = proposals;
                      result.trace_dump = r.trace.to_string();
                    }
                    return false;
                  }
                  return true;
                });
            if (winner.load(std::memory_order_relaxed) <= chunk_index ||
                tried.load(std::memory_order_relaxed) >= options.max_runs) {
              break;
            }
          }
        });
    const long winning = winner.load();
    for (long c = 0; c < chunks; ++c) {
      if (c > winning) break;  // cancelled chunks' speculative work
      reported += chunk_tried[static_cast<std::size_t>(c)];
    }
    if (result.violation_found) break;
  }
  result.runs_tried = reported;
  return result;
}

AttackResult search_agreement_violation(SystemConfig config,
                                        const AlgorithmFactory& factory,
                                        AttackOptions options) {
  return search_violation(config, factory, options,
                          agreement_or_validity_violation);
}

Fig1Runs fig1_construction(SystemConfig config,
                           const std::vector<ProcessId>& serial_prefix_victims,
                           ProcessId p1_prime, ProcessId pi1_prime,
                           Round decision_horizon) {
  config.validate();
  const Round t = config.t;
  if (static_cast<Round>(serial_prefix_victims.size()) != t - 1) {
    throw std::invalid_argument(
        "fig1_construction: need exactly t-1 serial prefix victims");
  }
  if (p1_prime == pi1_prime) {
    throw std::invalid_argument("fig1_construction: p'_1 == p'_{i+1}");
  }
  for (ProcessId v : serial_prefix_victims) {
    if (v == p1_prime || v == pi1_prime) {
      throw std::invalid_argument(
          "fig1_construction: prefix victims must differ from the pivots");
    }
  }
  const Round k_prime = decision_horizon;  // the paper's k' (a2's decision)

  auto prefix = [&](ScheduleBuilder& b) {
    // The (t-1)-round serial prefix r_{t-1}: one crash per round, silent.
    for (Round k = 1; k <= t - 1; ++k) {
      b.crash(serial_prefix_victims[k - 1], k, /*before_send=*/true);
    }
  };

  Fig1Runs runs{RunSchedule{config}, RunSchedule{config}, RunSchedule{config},
                RunSchedule{config}, RunSchedule{config}};

  {  // s1: p'_1 crashes in round t; p'_{i+1} misses its final message.
    ScheduleBuilder b(config);
    prefix(b);
    b.crash(p1_prime, t);
    b.lose(p1_prime, pi1_prime, t);
    runs.s1 = b.build();
  }
  {  // s0: p'_1 crashes in round t; final message reaches everyone.
    ScheduleBuilder b(config);
    prefix(b);
    b.crash(p1_prime, t);
    runs.s0 = b.build();
  }
  {  // a2: p'_1 alive but falsely suspected by p'_{i+1} in round t (message
     // delayed to t+2); p'_{i+1} crashes silently at t+1.
    ScheduleBuilder b(config);
    prefix(b);
    b.delay(p1_prime, pi1_prime, t, t + 2);
    b.crash(pi1_prime, t + 1, /*before_send=*/true);
    b.gst(t + 2);
    runs.a2 = b.build();
  }
  {  // a1: rounds <= t as a2; at t+1 everybody falsely suspects p'_{i+1}
     // (its messages delayed past a2's decision round k') and p'_{i+1}
     // falsely suspects p'_1; p'_{i+1} crashes silently at t+2.
    ScheduleBuilder b(config);
    prefix(b);
    b.delay(p1_prime, pi1_prime, t, t + 2);
    for (ProcessId r = 0; r < config.n; ++r) {
      if (r != pi1_prime) b.delay(pi1_prime, r, t + 1, k_prime + 1);
    }
    b.delay(p1_prime, pi1_prime, t + 1, k_prime + 1);
    b.crash(pi1_prime, t + 2, /*before_send=*/true);
    b.gst(k_prime + 1);
    runs.a1 = b.build();
  }
  {  // a0: the s0-side twin — p'_{i+1} DOES get p'_1's round-t message;
     // round t+1 is identical to a1's.
    ScheduleBuilder b(config);
    prefix(b);
    for (ProcessId r = 0; r < config.n; ++r) {
      if (r != pi1_prime) b.delay(pi1_prime, r, t + 1, k_prime + 1);
    }
    b.delay(p1_prime, pi1_prime, t + 1, k_prime + 1);
    b.crash(pi1_prime, t + 2, /*before_send=*/true);
    b.gst(k_prime + 1);
    runs.a0 = b.build();
  }
  return runs;
}

}  // namespace indulgence
