#include "sim/harness.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace indulgence {

std::string RunResult::summary() const {
  std::ostringstream os;
  os << "decision_round="
     << (global_decision_round ? std::to_string(*global_decision_round) : "-")
     << " agreement=" << (agreement ? "ok" : "VIOLATED")
     << " validity=" << (validity ? "ok" : "VIOLATED")
     << " termination=" << (termination ? "ok" : "FAILED")
     << " model=" << (validation.ok() ? "valid" : "INVALID");
  return os.str();
}

void judge_trace(RunResult& result) {
  result.validation = validate_trace(result.trace);
  result.global_decision_round = result.trace.global_decision_round();
  result.agreement = result.trace.agreement_ok();
  result.validity = result.trace.validity_ok();
  result.termination =
      result.trace.terminated() && result.trace.all_correct_decided();
}

RunResult run_and_check(SystemConfig config, KernelOptions options,
                        const AlgorithmFactory& factory,
                        const std::vector<Value>& proposals,
                        Adversary& adversary,
                        AlgorithmInstances* algorithms_out) {
  KernelScratch scratch;
  RunResult result;
  execute_run(config, options, factory, proposals, adversary, scratch,
              result.trace);
  if (algorithms_out) *algorithms_out = std::move(scratch.algorithms);
  judge_trace(result);
  return result;
}

RunResult run_and_check(SystemConfig config, KernelOptions options,
                        const AlgorithmFactory& factory,
                        const std::vector<Value>& proposals,
                        const RunSchedule& schedule,
                        AlgorithmInstances* algorithms_out) {
  ScheduleRefAdversary adversary(schedule);
  return run_and_check(config, options, factory, proposals, adversary,
                       algorithms_out);
}

RunContext::RunContext(SystemConfig config, KernelOptions options)
    : config_(config), options_(options) {
  config_.validate();
}

const RunResult& RunContext::run(const AlgorithmFactory& factory,
                                 const std::vector<Value>& proposals,
                                 Adversary& adversary) {
  execute_run(config_, options_, factory, proposals, adversary, scratch_,
              result_.trace);
  judge_trace(result_);
  return result_;
}

const RunResult& RunContext::run(const AlgorithmFactory& factory,
                                 const std::vector<Value>& proposals,
                                 const RunSchedule& schedule) {
  ScheduleRefAdversary adversary(schedule);
  return run(factory, proposals, adversary);
}

std::vector<Value> distinct_proposals(int n) {
  std::vector<Value> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

std::vector<Value> uniform_proposals(int n, Value v) {
  return std::vector<Value>(n, v);
}

RunSchedule failure_free_schedule(SystemConfig config) {
  return ScheduleBuilder(config).build();
}

RunSchedule staggered_chain_schedule(SystemConfig config, int crashes) {
  if (crashes > config.t) {
    throw std::invalid_argument("staggered_chain_schedule: crashes > t");
  }
  ScheduleBuilder b(config);
  for (int k = 1; k <= crashes; ++k) {
    const ProcessId victim = k - 1;
    b.crash(victim, k);
    // Round-k message survives only to process k; lost to everyone else.
    ProcessSet lost = ProcessSet::all(config.n);
    lost.erase(victim);
    lost.erase(k % config.n);
    b.losing_to(victim, k, lost);
  }
  return b.build();
}

RunSchedule crash_burst_schedule(SystemConfig config, int f, Round round,
                                 bool before_send) {
  if (f > config.t) throw std::invalid_argument("crash_burst_schedule: f > t");
  ScheduleBuilder b(config);
  for (ProcessId pid = 0; pid < f; ++pid) {
    b.crash(pid, round, before_send);
    if (!before_send) {
      // Half the recipients lose the message: exercises partial delivery.
      ProcessSet lost;
      for (ProcessId r = 0; r < config.n; r += 2) {
        if (r != pid) lost.insert(r);
      }
      b.losing_to(pid, round, lost);
    }
  }
  return b.build();
}

RunSchedule coordinator_assassin_schedule(SystemConfig config, int crashes) {
  if (crashes > config.t) {
    throw std::invalid_argument("coordinator_assassin_schedule: crashes > t");
  }
  ScheduleBuilder b(config);
  for (int a = 0; a < crashes; ++a) {
    // Attempt a occupies rounds 2a+1 and 2a+2 in the 2-round-attempt
    // algorithms; killing its coordinator before it can broadcast wastes
    // the whole attempt.
    b.crash(/*pid=*/a % config.n, /*round=*/2 * a + 1, /*before_send=*/true);
  }
  return b.build();
}

RunSchedule async_prefix_schedule(SystemConfig config, Round gst,
                                  const ProcessSet& laggards, int f,
                                  Round horizon) {
  if (laggards.size() > config.t) {
    throw std::invalid_argument("async_prefix_schedule: |laggards| > t");
  }
  if (f > config.t) {
    throw std::invalid_argument("async_prefix_schedule: f > t");
  }
  if (f + static_cast<int>(laggards.size()) > config.n) {
    throw std::invalid_argument(
        "async_prefix_schedule: f + |laggards| > n (crashes skip laggards)");
  }
  if (horizon > 0 && f > 0 && gst + f - 1 > horizon) {
    throw std::invalid_argument(
        "async_prefix_schedule: last crash round gst + f - 1 exceeds horizon");
  }
  ScheduleBuilder b(config);
  b.gst(gst);
  for (Round k = 1; k < gst; ++k) {
    for (ProcessId lag : laggards) {
      for (ProcessId r = 0; r < config.n; ++r) {
        if (r != lag) b.delay(lag, r, k, std::max(k + 1, gst));
      }
    }
  }
  // Staggered crashes after GST (avoid crashing the laggards themselves so
  // the asynchronous prefix stays distinct from the crash pattern).
  int injected = 0;
  for (ProcessId pid = 0; pid < config.n && injected < f; ++pid) {
    if (laggards.contains(pid)) continue;
    b.crash(pid, gst + injected, /*before_send=*/true);
    ++injected;
  }
  return b.build();
}

std::vector<RunSchedule> hostile_sync_schedules(SystemConfig config,
                                                int crashes) {
  std::vector<RunSchedule> out;
  out.push_back(failure_free_schedule(config));
  if (crashes == 0) return out;

  out.push_back(staggered_chain_schedule(config, crashes));
  out.push_back(crash_burst_schedule(config, crashes, 1, true));
  out.push_back(crash_burst_schedule(config, crashes, 1, false));
  out.push_back(crash_burst_schedule(config, crashes, 2, false));
  out.push_back(coordinator_assassin_schedule(config, crashes));

  // Reverse chain: crashes in rounds crashes..1 victim order reversed, each
  // delivering to nobody (before-send crash at increasing rounds).
  {
    ScheduleBuilder b(config);
    for (int k = 1; k <= crashes; ++k) {
      b.crash(crashes - k, k, /*before_send=*/true);
    }
    out.push_back(b.build());
  }

  // Chain where each crasher's message reaches everyone EXCEPT one process:
  // produces maximal asymmetric suspicion knowledge.
  {
    ScheduleBuilder b(config);
    for (int k = 1; k <= crashes; ++k) {
      const ProcessId victim = k - 1;
      b.crash(victim, k);
      b.lose(victim, (victim + 1) % config.n, k);
    }
    out.push_back(b.build());
  }

  // Late burst: all crashes in round `crashes` (as late as a serial run
  // would allow them all).
  {
    ScheduleBuilder b(config);
    for (ProcessId pid = 0; pid < crashes; ++pid) {
      b.crash(pid, crashes, pid % 2 == 0);
    }
    out.push_back(b.build());
  }
  return out;
}

std::vector<RunSchedule> all_hostile_sync_schedules(SystemConfig config) {
  std::vector<RunSchedule> out;
  for (int crashes = 0; crashes <= config.t; ++crashes) {
    for (RunSchedule& s : hostile_sync_schedules(config, crashes)) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

void camp_split_prefix(ScheduleBuilder& builder, const SystemConfig& config,
                       Round k, const ProcessSet& camp_a) {
  // lowest[c]: the t lowest ids of camp c (0: camp_a), hidden from the
  // other camp's receivers.
  ProcessSet lowest[2];
  for (ProcessId pid = 0; pid < config.n; ++pid) {
    ProcessSet& camp = lowest[camp_a.contains(pid) ? 0 : 1];
    if (camp.size() < config.t) camp.insert(pid);
  }
  if (lowest[0].size() < config.t || lowest[1].size() < config.t) {
    throw std::invalid_argument("camp_split_prefix: a camp holds < t ids");
  }
  builder.gst(k + 1);
  for (Round r = 1; r <= k; ++r) {
    for (ProcessId receiver = 0; receiver < config.n; ++receiver) {
      for (ProcessId sender : lowest[camp_a.contains(receiver) ? 1 : 0]) {
        builder.delay(sender, receiver, r, k + 1);
      }
    }
  }
}

void SyncSweep::merge(const SyncSweep& other) {
  if (other.runs == 0) return;
  if (runs == 0 || other.min_round < min_round) {
    min_round = other.min_round;
    min_schedule = other.min_schedule;
  }
  if (runs == 0 || other.max_round > max_round) {
    max_round = other.max_round;
    max_schedule = other.max_schedule;
  }
  runs += other.runs;
}

SyncSweep worst_case_sync_decision_round(
    SystemConfig config, KernelOptions options,
    const AlgorithmFactory& factory, const std::vector<RunSchedule>& schedules,
    const std::vector<std::vector<Value>>& proposal_vectors,
    CampaignOptions campaign) {
  const long per_schedule = static_cast<long>(proposal_vectors.size());
  const long total = static_cast<long>(schedules.size()) * per_schedule;

  // One (schedule, proposal) cell per work item; chunked per schedule.
  return parallel_reduce<SyncSweep>(
      total, campaign.resolved_chunk(per_schedule), campaign.resolved_jobs(),
      SyncSweep{}, [&](long, long begin, long end) {
        SyncSweep partial;
        RunContext ctx(config, options);
        for (long i = begin; i < end; ++i) {
          const auto s = static_cast<std::size_t>(i / per_schedule);
          const std::vector<Value>& proposals =
              proposal_vectors[static_cast<std::size_t>(i % per_schedule)];
          const RunResult& r = ctx.run(factory, proposals, schedules[s]);
          if (!r.ok()) {
            throw std::runtime_error(
                "worst_case_sync_decision_round: run failed: " + r.summary() +
                "\n" + r.validation.to_string() + "\n" + r.trace.to_string());
          }
          const Round round = *r.global_decision_round;
          partial.merge({1, round, round, s, s});
        }
        return partial;
      });
}

}  // namespace indulgence
