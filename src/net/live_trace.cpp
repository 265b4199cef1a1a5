#include "net/live_trace.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

namespace indulgence {

LiveMergeInput declared_merge_input(const SystemConfig& config,
                                    const LiveOptions& options) {
  LiveMergeInput merge;
  merge.config = config;
  for (const ByzantineInjection& b : options.byzantine) {
    if (b.event.liar < 0 || b.event.liar >= config.n) {
      throw std::invalid_argument("live run: Byzantine liar p" +
                                  std::to_string(b.event.liar) +
                                  " is out of range");
    }
    merge.byzantine.insert(b.event.liar);
  }
  merge.byzantine_budget = options.byzantine_budget > 0
                               ? options.byzantine_budget
                               : merge.byzantine.size();
  if (merge.byzantine_budget > 0 && 3 * merge.byzantine_budget >= config.n) {
    throw std::invalid_argument("live run: Byzantine budget needs 3b < n");
  }
  return merge;
}

RunTrace merge_process_logs(const LiveMergeInput& input) {
  const std::vector<ProcessLog>& logs = *input.logs;
  const int n = input.config.n;

  Round rounds = 0;
  for (const ProcessLog& log : logs) {
    rounds = std::max(rounds, log.completed);
    if (log.crash) rounds = std::max(rounds, log.crash->round);
  }

  RunTrace trace(input.config, input.model,
                 input.gst_hint > 0 ? input.gst_hint : 1);
  trace.set_rounds_executed(rounds);
  trace.set_terminated(input.terminated);
  for (ProcessId liar : input.byzantine) trace.record_byzantine(liar);
  if (input.byzantine_budget > 0) {
    trace.set_byzantine_budget(input.byzantine_budget);
  } else if (!input.byzantine.empty()) {
    trace.set_byzantine_budget(input.byzantine.size());
  }

  std::set<ProcessId> crashed;
  for (ProcessId pid = 0; pid < n; ++pid) {
    const ProcessLog& log = logs[static_cast<std::size_t>(pid)];
    trace.record_proposal(pid, log.proposal);
    if (log.crash) crashed.insert(pid);
    if (log.halt_round > 0) trace.record_halt(pid, log.halt_round);
  }

  // Kernel event order, round by round.  Per-process vectors are already
  // round-ascending (each thread appended as it executed), so a single
  // cursor per process suffices.
  std::vector<std::size_t> send_at(logs.size(), 0);
  std::vector<std::size_t> recv_at(logs.size(), 0);
  std::vector<std::size_t> decide_at(logs.size(), 0);
  for (Round k = 1; k <= rounds; ++k) {
    for (ProcessId pid = 0; pid < n; ++pid) {
      const ProcessLog& log = logs[static_cast<std::size_t>(pid)];
      if (log.crash && log.crash->round == k && log.crash->before_send) {
        trace.record_crash(*log.crash);
      }
    }
    for (ProcessId pid = 0; pid < n; ++pid) {
      const ProcessLog& log = logs[static_cast<std::size_t>(pid)];
      auto& cursor = send_at[static_cast<std::size_t>(pid)];
      while (cursor < log.sends.size() && log.sends[cursor].round == k) {
        trace.record_send(log.sends[cursor]);
        ++cursor;
      }
      if (log.crash && log.crash->round == k && !log.crash->before_send) {
        trace.record_crash(*log.crash);
      }
    }
    for (ProcessId pid = 0; pid < n; ++pid) {
      const ProcessLog& log = logs[static_cast<std::size_t>(pid)];
      auto& cursor = recv_at[static_cast<std::size_t>(pid)];
      while (cursor < log.deliveries.size() &&
             log.deliveries[cursor].recv_round == k) {
        trace.record_delivery(log.deliveries[cursor]);
        ++cursor;
      }
    }
    for (ProcessId pid = 0; pid < n; ++pid) {
      const ProcessLog& log = logs[static_cast<std::size_t>(pid)];
      auto& cursor = decide_at[static_cast<std::size_t>(pid)];
      while (cursor < log.decisions.size() &&
             log.decisions[cursor].round == k) {
        trace.record_decision(log.decisions[cursor]);
        ++cursor;
      }
    }
  }

  // Still-in-flight copies become pending records, like the kernel's
  // delayed-beyond-horizon messages.  Copies addressed to crashed processes
  // are dropped (the kernel never keeps pending deliveries to the dead),
  // and deliver rounds are clamped past the executed horizon.  A copy the
  // receiver already logged as delivered is not pending either: a socket
  // sender still holds a copy whose acknowledgement was lost in a reset or
  // at teardown, and delivered-and-pending would double-count it.
  std::set<std::tuple<ProcessId, Round, ProcessId>> seen;
  for (const ProcessLog& log : logs) {
    for (const DeliveryRecord& d : log.deliveries) {
      seen.insert({d.sender, d.send_round, d.receiver});
    }
  }
  auto add_pending = [&](const UndeliveredCopy& copy) {
    if (crashed.count(copy.receiver)) return;
    if (!seen.insert({copy.sender, copy.send_round, copy.receiver}).second) {
      return;
    }
    trace.record_pending(PendingRecord{
        copy.sender, copy.receiver, copy.send_round,
        std::max(copy.target_round, rounds + 1)});
  };
  std::vector<UndeliveredCopy> all = input.undelivered;
  for (const ProcessLog& log : logs) {
    all.insert(all.end(), log.leftovers.begin(), log.leftovers.end());
  }
  std::sort(all.begin(), all.end(), [](const UndeliveredCopy& a,
                                       const UndeliveredCopy& b) {
    return std::tie(a.send_round, a.sender, a.receiver) <
           std::tie(b.send_round, b.sender, b.receiver);
  });
  for (const UndeliveredCopy& copy : all) add_pending(copy);

  if (input.gst_hint <= 0) trace.set_gst(minimal_conforming_gst(trace));
  return trace;
}

RunResult merge_and_judge(const LiveMergeInput& input) {
  RunResult result;
  result.trace = merge_process_logs(input);
  judge_trace(result);
  return result;
}

Round minimal_conforming_gst(const RunTrace& trace) {
  std::map<ProcessId, Round> crash_round;
  for (const CrashRecord& c : trace.crashes()) crash_round[c.pid] = c.round;
  const auto completes = [&](ProcessId pid, Round k) {
    auto it = crash_round.find(pid);
    return it == crash_round.end() || it->second > k;
  };

  std::set<std::tuple<ProcessId, Round, ProcessId>> in_round;
  for (const DeliveryRecord& d : trace.deliveries()) {
    if (d.recv_round == d.send_round) {
      in_round.insert({d.sender, d.send_round, d.receiver});
    }
  }

  Round gst = 1;
  for (const SendRecord& s : trace.sends()) {
    auto it = crash_round.find(s.sender);
    if (it != crash_round.end() && it->second == s.round) continue;
    // A budgeted liar's selective silence is excused by the validator's
    // synchrony check (sim/validator.cpp), so it must not inflate the
    // derived GST either.
    if (trace.byzantine().contains(s.sender)) continue;
    for (ProcessId r = 0; r < trace.config().n; ++r) {
      if (!completes(r, s.round)) continue;
      if (!in_round.count({s.sender, s.round, r})) {
        gst = std::max(gst, s.round + 1);
        break;
      }
    }
  }
  return gst;
}

}  // namespace indulgence
