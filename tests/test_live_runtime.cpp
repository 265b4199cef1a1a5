// The live async runtime (src/net): scripted replays must match the
// lockstep kernel decision-for-decision on the same schedules, live runs
// must produce model-valid traces, and fault injection (GST offsets,
// crashes, loss) must surface exactly the way the model says it should.

#include "net/runtime.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "fuzz/targets.hpp"
#include "net/live_trace.hpp"
#include "rsm/rsm.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

KernelOptions kernel_options(Model model, Round max_rounds = 128) {
  KernelOptions o;
  o.model = model;
  o.max_rounds = max_rounds;
  return o;
}

std::map<ProcessId, Round> decision_rounds(const RunTrace& trace) {
  std::map<ProcessId, Round> out;
  for (const DecisionRecord& d : trace.decisions()) {
    out.emplace(d.pid, d.round);  // first decision per process wins
  }
  return out;
}

/// Runs `schedule` through the lockstep kernel and through the live
/// runtime's scripted transport and asserts the two engines agree: both
/// valid, both deciding, same value agreement, and the same decision round
/// at every process.
void expect_engines_agree(const SystemConfig& cfg, const FuzzTarget& target,
                          const RunSchedule& schedule) {
  const std::vector<Value> proposals = distinct_proposals(cfg.n);
  const RunResult kernel =
      run_and_check(cfg, kernel_options(target.model), target.factory,
                    proposals, schedule);
  const RunResult live = replay_schedule_live(cfg, target.model, schedule,
                                              target.factory, proposals);
  ASSERT_TRUE(kernel.ok()) << target.name << "\n" << kernel.summary();
  ASSERT_TRUE(live.ok()) << target.name << "\n"
                         << live.summary() << "\n"
                         << live.validation.to_string();
  EXPECT_EQ(kernel.global_decision_round, live.global_decision_round)
      << target.name;
  EXPECT_EQ(decision_rounds(kernel.trace), decision_rounds(live.trace))
      << target.name << "\nkernel:\n"
      << kernel.trace.to_string() << "\nlive:\n"
      << live.trace.to_string();
}

// ---------------------------------------------------------------------------
// Scripted replay: decision-round equivalence with the kernel.
// ---------------------------------------------------------------------------

TEST(LiveRuntimeScripted, FailureFreeMatchesKernelForAllSevenAlgorithms) {
  // n = 4, t = 1 satisfies every resilience requirement (A_{f+2} needs
  // t < n/3).
  const SystemConfig cfg{.n = 4, .t = 1};
  for (const FuzzTarget& target : fuzz_targets()) {
    if (!target.expect_safe) continue;
    expect_engines_agree(cfg, target, failure_free_schedule(cfg));
  }
}

TEST(LiveRuntimeScripted, HostileSchedulesMatchKernel) {
  const SystemConfig cfg{.n = 5, .t = 2};
  const std::vector<RunSchedule> schedules = {
      staggered_chain_schedule(cfg, cfg.t),
      crash_burst_schedule(cfg, cfg.t, 1, true),
      crash_burst_schedule(cfg, cfg.t, 2, false),
      coordinator_assassin_schedule(cfg, cfg.t),
  };
  for (const char* name : {"hr", "at2", "at2-ds"}) {
    const FuzzTarget* target = find_fuzz_target(name);
    ASSERT_NE(target, nullptr) << name;
    for (const RunSchedule& schedule : schedules) {
      expect_engines_agree(cfg, *target, schedule);
    }
  }
}

TEST(LiveRuntimeScripted, SynchronousCrashStopMatchesKernel) {
  const SystemConfig cfg{.n = 4, .t = 1};
  for (const char* name : {"floodset", "floodset-ws", "floodset-early"}) {
    const FuzzTarget* target = find_fuzz_target(name);
    ASSERT_NE(target, nullptr) << name;
    expect_engines_agree(cfg, *target, staggered_chain_schedule(cfg, cfg.t));
    expect_engines_agree(cfg, *target,
                         crash_burst_schedule(cfg, cfg.t, 1, false));
  }
}

TEST(LiveRuntimeScripted, AsyncPrefixWithDelaysMatchesKernel) {
  // Delayed fates exercise the reorder buffer: early envelopes must be
  // adopted exactly in their target round, like the kernel's pending queue.
  const SystemConfig cfg{.n = 5, .t = 2};
  const RunSchedule schedule =
      async_prefix_schedule(cfg, /*gst=*/4, /*laggards=*/{1, 2}, /*f=*/1);
  for (const char* name : {"hr", "at2"}) {
    const FuzzTarget* target = find_fuzz_target(name);
    ASSERT_NE(target, nullptr) << name;
    expect_engines_agree(cfg, *target, schedule);
  }
  // A_{f+2} needs t < n/3.
  const SystemConfig early{.n = 4, .t = 1};
  const FuzzTarget* af2 = find_fuzz_target("af2");
  ASSERT_NE(af2, nullptr);
  expect_engines_agree(
      early, *af2,
      async_prefix_schedule(early, /*gst=*/3, /*laggards=*/{1}, /*f=*/1));
}

// ---------------------------------------------------------------------------
// Live mode: real threads, real clocks, fault injection.
// ---------------------------------------------------------------------------

TEST(LiveRuntimeLive, AllSevenAlgorithmsDecideOverRealThreads) {
  // Every live trace is ES-valid, and the ES targets must be safe on it.
  // The SCS targets (the FloodSet family) owe safety only to synchronous
  // runs, which a contended host does not promise: for them the claim is
  // "the trace is not SCS-valid, or agreement, validity and termination
  // hold".
  const SystemConfig cfg{.n = 4, .t = 1};
  for (const FuzzTarget& target : fuzz_targets()) {
    if (!target.expect_safe) continue;
    const RunResult r =
        run_live(cfg, LiveOptions{}, target.factory, distinct_proposals(cfg.n));
    const std::string context = target.name + "\n" + r.summary() + "\n" +
                                r.validation.to_string();
    if (target.model == Model::ES) {
      EXPECT_TRUE(r.ok()) << context;
      continue;
    }
    EXPECT_TRUE(r.validation.ok()) << context;
    RunTrace as_scs = r.trace;
    as_scs.set_model(Model::SCS);
    const bool scs_valid = validate_trace(as_scs).ok();
    EXPECT_TRUE(!scs_valid || (r.agreement && r.validity && r.termination))
        << context;
  }
}

TEST(LiveRuntimeLive, WallClockGstOffsetStillProducesAValidTrace) {
  // 1 ms of slow jittery pre-GST network: the derived GST round may move
  // out, but the trace must stay model-valid and the run must decide.
  LiveOptions options;
  options.gst = std::chrono::microseconds{1000};
  options.seed = 7;
  const SystemConfig cfg{.n = 5, .t = 2};
  const FuzzTarget* at2 = find_fuzz_target("at2");
  ASSERT_NE(at2, nullptr);
  const RunResult r =
      run_live(cfg, options, at2->factory, distinct_proposals(cfg.n));
  EXPECT_TRUE(r.ok()) << r.summary() << "\n" << r.validation.to_string();
  EXPECT_GE(r.trace.gst(), 1);
}

TEST(LiveRuntimeLive, RoundFloorPacesRoundsWithoutChangingTheOutcome) {
  // round_floor emulates a network RTT on loopback: every live round must
  // last at least the floor, so a decision at round k costs >= (k-1)
  // floors of wall clock (the final round may close into the stop drain,
  // which the floor deliberately never delays).  The trace itself — valid,
  // decided — must be indistinguishable from an unpaced run.
  LiveOptions options;
  options.round_floor = std::chrono::milliseconds{5};
  options.seed = 11;
  const SystemConfig cfg{.n = 3, .t = 1};
  const FuzzTarget* hr = find_fuzz_target("hr");
  ASSERT_NE(hr, nullptr);
  const auto start = std::chrono::steady_clock::now();
  const RunResult r =
      run_live(cfg, options, hr->factory, distinct_proposals(cfg.n));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(r.ok()) << r.summary() << "\n" << r.validation.to_string();
  ASSERT_TRUE(r.global_decision_round.has_value());
  const auto lower_bound =
      options.round_floor * (*r.global_decision_round - 1);
  EXPECT_GE(elapsed, lower_bound)
      << "decided at round " << *r.global_decision_round
      << " faster than the floor allows";
}

TEST(LiveRuntimeLive, InjectedCrashIsRecordedAndSurvived) {
  LiveOptions options;
  options.crashes.push_back(CrashInjection{0, 2, true});
  const SystemConfig cfg{.n = 5, .t = 2};
  const FuzzTarget* at2 = find_fuzz_target("at2");
  ASSERT_NE(at2, nullptr);
  const RunResult r =
      run_live(cfg, options, at2->factory, distinct_proposals(cfg.n));
  EXPECT_TRUE(r.ok()) << r.summary() << "\n" << r.validation.to_string();
  EXPECT_TRUE(r.trace.crashed().contains(0));
}

TEST(LiveRuntimeMerge, CopiesLeftForACrashedReceiverAreNotPending) {
  // A crashed receiver never pops again, so teardown drains the copies
  // still in its mailbox; like the kernel, the merge keeps none of them as
  // pending.  Copies left for live receivers stay pending.
  const SystemConfig cfg{.n = 3, .t = 1};
  std::vector<ProcessLog> logs(static_cast<std::size_t>(cfg.n));
  for (ProcessId pid = 0; pid < 2; ++pid) {
    logs[static_cast<std::size_t>(pid)].sends.push_back(
        SendRecord{1, pid, false});
    logs[static_cast<std::size_t>(pid)].completed = 1;
  }
  logs[2].crash = CrashRecord{1, 2, true};
  LiveMergeInput input;
  input.config = cfg;
  input.logs = &logs;
  input.undelivered = {UndeliveredCopy{0, 1, 1, 0}, UndeliveredCopy{0, 2, 1, 0},
                       UndeliveredCopy{1, 0, 1, 0}, UndeliveredCopy{1, 2, 1, 0}};

  const RunTrace trace = merge_process_logs(input);
  std::vector<std::pair<ProcessId, ProcessId>> pending;
  for (const PendingRecord& p : trace.pending()) {
    pending.emplace_back(p.sender, p.receiver);
  }
  EXPECT_EQ(pending, (std::vector<std::pair<ProcessId, ProcessId>>{{0, 1},
                                                                   {1, 0}}));
}

TEST(LiveRuntimeLive, MessageLossIsFlaggedByTheValidator) {
  // Total pre-GST loss with a never-arriving GST: rounds only close through
  // the round_cap escape valve, and the validator must refuse the trace —
  // lost copies between correct processes break reliable channels.  The
  // runtime's job here is to report the out-of-model run, not to hide it.
  LiveOptions options;
  options.gst = std::chrono::hours{1};
  options.loss_prob = 1.0;
  options.round_cap = std::chrono::milliseconds{5};
  options.max_rounds = 3;
  const SystemConfig cfg{.n = 3, .t = 1};
  const FuzzTarget* target = find_fuzz_target("hr");
  ASSERT_NE(target, nullptr);
  LiveRuntime runtime(cfg, options);
  const RunResult r = runtime.run(target->factory, distinct_proposals(cfg.n));
  EXPECT_GT(runtime.dropped_copies(), 0);
  EXPECT_FALSE(r.validation.ok());
  EXPECT_FALSE(r.termination);
}

TEST(LiveRuntimeLive, RsmCommitsAWholeLogAndTheTraceValidates) {
  const SystemConfig cfg{.n = 3, .t = 1};
  constexpr int kSlots = 4;
  RsmOptions opt;
  opt.num_slots = kSlots;
  opt.slot_window = 2;
  At2Options ff;
  ff.failure_free_opt = true;
  const AlgorithmFactory factory = rsm_factory(
      at2_factory(hurfin_raynal_factory(), ff),
      [](ProcessId id) {
        std::vector<Value> cmds;
        for (int i = 0; i < kSlots; ++i) cmds.push_back(100 * (id + 1) + i);
        return cmds;
      },
      opt);

  LiveRuntime runtime(cfg, LiveOptions{});
  runtime.set_done_predicate([](const RoundAlgorithm& algorithm) {
    const auto* rep = dynamic_cast<const RsmReplica*>(&algorithm);
    return rep && rep->all_slots_committed();
  });
  const RunResult r = runtime.run(factory, distinct_proposals(cfg.n));
  EXPECT_TRUE(r.validation.ok()) << r.validation.to_string();
  EXPECT_TRUE(r.trace.terminated());
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    const auto* rep = dynamic_cast<const RsmReplica*>(
        runtime.algorithms()[static_cast<std::size_t>(pid)].get());
    ASSERT_NE(rep, nullptr);
    EXPECT_TRUE(rep->all_slots_committed()) << "p" << pid;
  }
}

TEST(LiveRuntimeLive, ObserverSeesEveryCompletedRoundOfEveryProcess) {
  const SystemConfig cfg{.n = 3, .t = 1};
  std::vector<Round> last_seen(static_cast<std::size_t>(cfg.n), 0);
  LiveRuntime runtime(cfg, LiveOptions{});
  runtime.set_observer([&last_seen](ProcessId pid, Round k,
                                    const RoundAlgorithm&,
                                    std::chrono::microseconds) {
    // Rounds arrive in order on each process' own thread.
    EXPECT_EQ(k, last_seen[static_cast<std::size_t>(pid)] + 1);
    last_seen[static_cast<std::size_t>(pid)] = k;
  });
  const FuzzTarget* at2 = find_fuzz_target("at2");
  ASSERT_NE(at2, nullptr);
  const RunResult r = runtime.run(at2->factory, distinct_proposals(cfg.n));
  ASSERT_TRUE(r.ok()) << r.summary();
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_EQ(last_seen[static_cast<std::size_t>(pid)],
              r.trace.rounds_executed());
  }
}

}  // namespace
}  // namespace indulgence
