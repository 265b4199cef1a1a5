#include "lb/explorer.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace indulgence {

std::string AdversaryAction::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::NoOp:
      os << "noop";
      break;
    case Kind::Crash:
      os << "crash(p" << victim << ", delivered="
         << ProcessSet::from_mask(mask).to_string() << ")";
      break;
    case Kind::Delay:
      os << "delay(p" << victim << ", late-to="
         << ProcessSet::from_mask(mask).to_string() << ", +" << delay << ")";
      break;
  }
  return os.str();
}

std::vector<AdversaryAction> enumerate_actions(const SystemConfig& config,
                                               const ProcessSet& alive,
                                               int crashes_so_far,
                                               bool allow_delays,
                                               Round delay_gap) {
  std::vector<AdversaryAction> actions;
  actions.push_back({});  // NoOp

  // A new failing sender this round is admissible only if receivers still
  // see >= n - t current-round messages: crashed-so-far + 1 <= t.
  if (crashes_so_far + 1 > config.t) return actions;

  for (ProcessId v : alive) {
    ProcessSet others = alive;
    others.erase(v);
    const std::uint64_t others_mask = others.mask();
    // Crash: every subset of the other live processes may receive the final
    // message (iterate subsets of others_mask).
    std::uint64_t sub = others_mask;
    for (;;) {
      actions.push_back(
          {AdversaryAction::Kind::Crash, v, sub, 0});
      if (sub == 0) break;
      sub = (sub - 1) & others_mask;
    }
    if (allow_delays) {
      // Delay: a NONEMPTY subset of the others gets v's message late.  (The
      // empty subset is NoOp; the receivers in the subset falsely suspect
      // v this round.)
      sub = others_mask;
      while (sub != 0) {
        actions.push_back({AdversaryAction::Kind::Delay, v, sub, delay_gap});
        sub = (sub - 1) & others_mask;
      }
    }
  }
  return actions;
}

RunSchedule schedule_from_actions(
    const SystemConfig& config, const std::vector<AdversaryAction>& actions) {
  ScheduleBuilder b(config);
  Round gst = 1;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const Round round = static_cast<Round>(i) + 1;
    const AdversaryAction& a = actions[i];
    switch (a.kind) {
      case AdversaryAction::Kind::NoOp:
        break;
      case AdversaryAction::Kind::Crash: {
        const ProcessSet delivered = ProcessSet::from_mask(a.mask);
        if (delivered.empty()) {
          b.crash(a.victim, round, /*before_send=*/true);
        } else {
          b.crash(a.victim, round);
          ProcessSet lost = ProcessSet::all(config.n) - delivered;
          lost.erase(a.victim);
          b.losing_to(a.victim, round, lost);
        }
        break;
      }
      case AdversaryAction::Kind::Delay: {
        b.delaying_to(a.victim, round, ProcessSet::from_mask(a.mask),
                      round + a.delay);
        gst = std::max(gst, round + a.delay);
        break;
      }
    }
  }
  b.gst(gst);
  return b.build();
}

namespace {

/// Depth-first core shared by the whole-space and per-prefix entry points:
/// extends `actions` (the serial prefix chosen so far) to `rounds` rounds,
/// threading alive/crash state through the recursion.
struct SequenceEnumerator {
  const SystemConfig& config;
  Round rounds;
  bool allow_delays;
  Round delay_gap;
  const std::function<bool(const std::vector<AdversaryAction>&)>& visit;

  long visited = 0;
  bool keep_going = true;

  void recurse(std::vector<AdversaryAction>& actions, Round depth,
               ProcessSet alive, int crashes) {
    if (!keep_going) return;
    if (depth == rounds) {
      ++visited;
      if (!visit(actions)) keep_going = false;
      return;
    }
    for (const AdversaryAction& a : enumerate_actions(
             config, alive, crashes, allow_delays, delay_gap)) {
      actions.push_back(a);
      if (a.kind == AdversaryAction::Kind::Crash) {
        ProcessSet next_alive = alive;
        next_alive.erase(a.victim);
        recurse(actions, depth + 1, next_alive, crashes + 1);
      } else {
        recurse(actions, depth + 1, alive, crashes);
      }
      actions.pop_back();
      if (!keep_going) return;
    }
  }
};

}  // namespace

long for_each_action_sequence(
    const SystemConfig& config, Round rounds, bool allow_delays,
    Round delay_gap,
    const std::function<bool(const std::vector<AdversaryAction>&)>& visit) {
  return for_each_action_sequence_from(config, {}, rounds, allow_delays,
                                       delay_gap, visit);
}

long for_each_action_sequence_from(
    const SystemConfig& config, const std::vector<AdversaryAction>& prefix,
    Round rounds, bool allow_delays, Round delay_gap,
    const std::function<bool(const std::vector<AdversaryAction>&)>& visit) {
  config.validate();
  if (static_cast<Round>(prefix.size()) > rounds) {
    throw std::invalid_argument(
        "for_each_action_sequence_from: prefix longer than rounds");
  }
  ProcessSet alive = ProcessSet::all(config.n);
  int crashes = 0;
  for (const AdversaryAction& a : prefix) {
    if (a.kind == AdversaryAction::Kind::Crash) {
      alive.erase(a.victim);
      ++crashes;
    }
  }
  SequenceEnumerator e{config, rounds, allow_delays, delay_gap, visit};
  std::vector<AdversaryAction> actions = prefix;
  actions.reserve(static_cast<std::size_t>(rounds));
  e.recurse(actions, static_cast<Round>(prefix.size()), alive, crashes);
  return e.visited;
}

void WorstCaseResult::merge(const WorstCaseResult& other) {
  runs += other.runs;
  all_ok &= other.all_ok;
  if (other.worst_decision_round > worst_decision_round) {
    worst_decision_round = other.worst_decision_round;
    schedule = other.schedule;
  }
}

WorstCaseResult worst_case_over_deliveries(
    SystemConfig config, const AlgorithmFactory& factory,
    const std::vector<Value>& proposals, const std::vector<CrashSlot>& slots,
    long exhaustive_limit, long samples, std::uint64_t seed, Round max_rounds,
    CampaignOptions campaign, const ScheduleBuilder* prefix) {
  config.validate();
  if (static_cast<int>(slots.size()) > config.t) {
    throw std::invalid_argument("worst_case_over_deliveries: > t crashes");
  }

  KernelOptions options;
  options.model = Model::ES;
  options.max_rounds = max_rounds;

  // Delivery pattern per slot: a mask over the other n-1 processes.
  const int bits_per_slot = config.n - 1;
  const int total_bits = bits_per_slot * static_cast<int>(slots.size());
  const bool exhaustive =
      total_bits < 63 && (1LL << total_bits) <= exhaustive_limit;

  // The patterns to examine, indexed 0..total-1.  Exhaustive mode uses the
  // index itself; sampled mode pre-draws the whole list from Rng(seed), so
  // the examined patterns match the sequential sweep draw-for-draw no
  // matter how the index range is later chunked.
  std::vector<std::uint64_t> drawn;
  long total;
  if (exhaustive) {
    total = 1L << total_bits;
  } else {
    total = samples;
    drawn.reserve(static_cast<std::size_t>(samples));
    Rng rng(seed);
    for (long i = 0; i < samples; ++i) {
      std::uint64_t packed = rng.next_u64();
      if (total_bits < 64) packed &= (std::uint64_t{1} << total_bits) - 1;
      drawn.push_back(packed);
    }
  }

  auto evaluate = [&](std::uint64_t packed, RunContext& ctx,
                      WorstCaseResult& partial) {
    ScheduleBuilder b = prefix ? *prefix : ScheduleBuilder(config);
    std::uint64_t cursor = packed;
    for (const CrashSlot& slot : slots) {
      ProcessSet delivered;
      int bit = 0;
      for (ProcessId pid = 0; pid < config.n; ++pid) {
        if (pid == slot.victim) continue;
        if ((cursor >> bit) & 1u) delivered.insert(pid);
        ++bit;
      }
      cursor >>= bits_per_slot;
      if (delivered.empty()) {
        b.crash(slot.victim, slot.round, /*before_send=*/true);
      } else {
        b.crash(slot.victim, slot.round);
        ProcessSet lost = ProcessSet::all(config.n) - delivered;
        lost.erase(slot.victim);
        b.losing_to(slot.victim, slot.round, lost);
      }
    }
    const RunSchedule schedule = b.build();
    const RunResult& r = ctx.run(factory, proposals, schedule);
    ++partial.runs;
    if (!r.ok()) {
      partial.all_ok = false;
      return;
    }
    if (*r.global_decision_round > partial.worst_decision_round) {
      partial.worst_decision_round = *r.global_decision_round;
      partial.schedule = schedule;
    }
  };

  return parallel_reduce<WorstCaseResult>(
      total, campaign.resolved_chunk(256), campaign.resolved_jobs(),
      WorstCaseResult{}, [&](long, long begin, long end) {
        WorstCaseResult partial;
        RunContext ctx(config, options);
        for (long i = begin; i < end; ++i) {
          evaluate(exhaustive ? static_cast<std::uint64_t>(i)
                              : drawn[static_cast<std::size_t>(i)],
                   ctx, partial);
        }
        return partial;
      });
}

SyncRunExplorer::SyncRunExplorer(SystemConfig config, AlgorithmFactory factory,
                                 std::vector<Value> proposals)
    : config_(config),
      factory_(std::move(factory)),
      proposals_(std::move(proposals)) {
  config_.validate();
}

void SyncRunExplorer::Stats::merge(const Stats& other) {
  runs += other.runs;
  if (other.max_decision_round > max_decision_round) {
    max_decision_round = other.max_decision_round;
    worst_schedule = other.worst_schedule;
  }
  min_decision_round = std::min(min_decision_round, other.min_decision_round);
  all_valid &= other.all_valid;
  all_agreement &= other.all_agreement;
  all_validity &= other.all_validity;
  all_terminated &= other.all_terminated;
  decision_values.insert(other.decision_values.begin(),
                         other.decision_values.end());
}

SyncRunExplorer::Stats SyncRunExplorer::explore(Round action_rounds,
                                                Round max_rounds,
                                                CampaignOptions campaign) {
  Stats init;
  init.min_decision_round = max_rounds + 1;
  KernelOptions options;
  options.model = Model::ES;
  options.max_rounds = max_rounds;

  auto record = [&](RunContext& ctx,
                    const std::vector<AdversaryAction>& actions,
                    Stats& stats) {
    const RunSchedule schedule = schedule_from_actions(config_, actions);
    const RunResult& r = ctx.run(factory_, proposals_, schedule);
    ++stats.runs;
    stats.all_valid &= r.validation.ok();
    stats.all_agreement &= r.agreement;
    stats.all_validity &= r.validity;
    stats.all_terminated &= r.termination;
    if (r.global_decision_round) {
      if (*r.global_decision_round > stats.max_decision_round) {
        stats.max_decision_round = *r.global_decision_round;
        stats.worst_schedule = schedule;
      }
      stats.min_decision_round =
          std::min(stats.min_decision_round, *r.global_decision_round);
    }
    for (const DecisionRecord& d : r.trace.decisions()) {
      stats.decision_values.insert(d.value);
    }
  };

  if (action_rounds <= 0) {
    // A single crash-free run; nothing to partition.
    Stats stats = init;
    RunContext ctx(config_, options);
    record(ctx, {}, stats);
    return stats;
  }

  // Partition by first-round action: one independent subtree per item.
  const std::vector<AdversaryAction> first = enumerate_actions(
      config_, ProcessSet::all(config_.n), 0, /*allow_delays=*/false, 0);
  return parallel_reduce<Stats>(
      static_cast<long>(first.size()), campaign.resolved_chunk(1),
      campaign.resolved_jobs(), init, [&](long, long begin, long end) {
        Stats partial = init;
        RunContext ctx(config_, options);
        for (long i = begin; i < end; ++i) {
          for_each_action_sequence_from(
              config_, {first[static_cast<std::size_t>(i)]}, action_rounds,
              /*allow_delays=*/false, /*delay_gap=*/0,
              [&](const std::vector<AdversaryAction>& actions) {
                record(ctx, actions, partial);
                return true;
              });
        }
        return partial;
      });
}

}  // namespace indulgence
