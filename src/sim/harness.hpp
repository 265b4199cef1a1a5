// Run drivers and canonical adversarial schedules.
//
// The harness is the layer tests, examples, and benchmarks share: it runs a
// consensus algorithm under an adversary, validates the produced trace
// against the model, and summarizes the consensus properties; and it
// provides the classical worst-case synchronous schedules (staggered crash
// chains, crash bursts, coordinator assassination) used by the paper's
// complexity claims, the camp-splitting asynchronous prefix of the
// eventual-decision experiments, and the one hostile-schedule sweep
// (worst_case_sync_decision_round) that measures a decision-round claim
// over a schedule list.  Both run_and_check and RunContext run through the
// kernel's one run path, execute_run; a one-off run gets fresh scratch
// buffers, a sweep worker's RunContext reuses its own.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/adversary.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "sim/validator.hpp"

namespace indulgence {

struct RunResult {
  RunTrace trace;
  ValidationReport validation;

  std::optional<Round> global_decision_round;
  bool agreement = false;
  bool validity = false;
  bool termination = false;  ///< every correct process decided within the cap

  /// True when the trace is model-valid and all three consensus properties
  /// hold.
  bool ok() const {
    return validation.ok() && agreement && validity && termination;
  }

  std::string summary() const;
};

/// Fills the verdict of `result` from its trace: the validator report, the
/// global decision round, and agreement, validity and termination.  Every
/// engine (the kernel, the live runtimes, shipped logs) judges through it.
void judge_trace(RunResult& result);

/// The algorithm instances of a finished run, for state inspection (tests
/// read final Halt sets / new estimates through them).
using AlgorithmInstances = std::vector<std::unique_ptr<RoundAlgorithm>>;

/// Runs one consensus instance through execute_run, as RunContext does,
/// and checks everything.  When `algorithms_out` is non-null it receives
/// the per-process algorithm instances, which stay valid after the run.
RunResult run_and_check(SystemConfig config, KernelOptions options,
                        const AlgorithmFactory& factory,
                        const std::vector<Value>& proposals,
                        Adversary& adversary,
                        AlgorithmInstances* algorithms_out = nullptr);

/// Schedule-based convenience overload.
RunResult run_and_check(SystemConfig config, KernelOptions options,
                        const AlgorithmFactory& factory,
                        const std::vector<Value>& proposals,
                        const RunSchedule& schedule,
                        AlgorithmInstances* algorithms_out = nullptr);

/// A reusable run driver for sweep workers.  Owns the kernel scratch
/// buffers, the trace, and the RunResult, so executing a run allocates only
/// what the run itself needs (algorithm instances and message payloads) —
/// a worker runs millions of schedules without reallocating storage.  Each
/// campaign worker keeps its own RunContext; contexts are not thread-safe.
class RunContext {
 public:
  RunContext(SystemConfig config, KernelOptions options);

  /// Runs one schedule and re-checks it.  The returned reference (and the
  /// instances below) stay valid until the next run() call.
  const RunResult& run(const AlgorithmFactory& factory,
                       const std::vector<Value>& proposals,
                       const RunSchedule& schedule);

  /// As above, under an arbitrary adversary.
  const RunResult& run(const AlgorithmFactory& factory,
                       const std::vector<Value>& proposals,
                       Adversary& adversary);

  /// Algorithm instances of the last run, for state inspection.
  const std::vector<std::unique_ptr<RoundAlgorithm>>& algorithms() const {
    return scratch_.algorithms;
  }

 private:
  SystemConfig config_;
  KernelOptions options_;
  KernelScratch scratch_;
  RunResult result_;
};

/// Distinct proposals 0, 1, ..., n-1 (process i proposes i).
std::vector<Value> distinct_proposals(int n);

/// All processes propose v.
std::vector<Value> uniform_proposals(int n, Value v);

// --- canonical synchronous schedules -------------------------------------

/// No crashes at all.
RunSchedule failure_free_schedule(SystemConfig config);

/// The classical staggered chain: for k = 1..crashes, process k-1 crashes in
/// round k and its round-k message reaches ONLY process k (all other copies
/// are lost).  With process 0 holding the minimum proposal this hides the
/// decisive value for `crashes` rounds — the worst case that forces
/// FloodSet to use all t + 1 rounds.
RunSchedule staggered_chain_schedule(SystemConfig config, int crashes);

/// `f` processes (ids 0..f-1) crash in round `round`, before their send
/// phase when `before_send`.
RunSchedule crash_burst_schedule(SystemConfig config, int f, Round round,
                                 bool before_send);

/// Kills the coordinator/leader of each 2-round attempt: process a crashes
/// in round 2a + 1 (a = 0..crashes-1) before sending — the worst case for
/// rotating-coordinator algorithms (Hurfin-Raynal needs 2t + 2 rounds).
RunSchedule coordinator_assassin_schedule(SystemConfig config, int crashes);

/// An asynchronous prefix: rounds 1..gst-1 delay all messages from the
/// `laggards` set by one round (a moving partition), synchronous from gst
/// on, with `f` staggered crashes in rounds gst .. gst+f-1.  Used by the
/// eventual-decision experiments (runs "synchronous after round k").
/// Requires f <= t, |laggards| <= t, and f + |laggards| <= n (the crashes
/// skip the laggards, so there must be enough other processes to kill).
/// A positive `horizon` additionally requires the last crash round
/// gst + f - 1 to stay within it — rejecting schedules whose crashes would
/// fall beyond the run's round cap and silently never happen.
RunSchedule async_prefix_schedule(SystemConfig config, Round gst,
                                  const ProcessSet& laggards, int f,
                                  Round horizon = 0);

/// A library of hostile synchronous schedules with exactly `crashes`
/// crashes (chains with different delivery targets, bursts early and late,
/// before/after-send variants).  Used for worst-case sweeps where
/// exhaustive search is too expensive.
std::vector<RunSchedule> hostile_sync_schedules(SystemConfig config,
                                                int crashes);

/// hostile_sync_schedules for every crash count 0..t, in crash-count order:
/// the synchronous runs a claim over "at most t crashes" quantifies over.
std::vector<RunSchedule> all_hostile_sync_schedules(SystemConfig config);

/// The camp-splitting asynchronous prefix: GST is k + 1, and in rounds
/// 1..k every receiver misses (until GST) the round message of the t
/// lowest ids of the other camp — `camp_a` or its complement.  Every
/// receiver still hears exactly n - t current-round messages, so the
/// prefix is t-resilient; it pins algorithms that need a quorum view of one
/// value undecided until GST.  Requires both camps to hold at least t ids.
void camp_split_prefix(ScheduleBuilder& builder, const SystemConfig& config,
                       Round k, const ProcessSet& camp_a);

/// What a hostile-schedule sweep measured: the run count, and the lowest
/// and highest global decision round with the first schedule (an index
/// into the swept list) that reached each.
struct SyncSweep {
  long runs = 0;
  Round min_round = 0;
  Round max_round = 0;
  std::size_t min_schedule = 0;
  std::size_t max_schedule = 0;

  /// Monoid merge of a later chunk: runs add, and a bound moves only on a
  /// strictly lower (min) or higher (max) round, so the earliest witness
  /// wins at any chunking.
  void merge(const SyncSweep& other);
};

/// Runs `factory` under `options` on every (schedule, proposal vector)
/// pair, in schedule-major order, and checks every run is valid, agreeing,
/// and terminating.  Throws on any failure (the lowest-indexed failing run
/// wins, at any job count).  The grid is swept on the campaign engine.
SyncSweep worst_case_sync_decision_round(
    SystemConfig config, KernelOptions options,
    const AlgorithmFactory& factory, const std::vector<RunSchedule>& schedules,
    const std::vector<std::vector<Value>>& proposal_vectors,
    CampaignOptions campaign = {});

}  // namespace indulgence
