// The round-based simulation kernel.
//
// Executes one run of a round-based algorithm (paper Sect. 1.2) under an
// adversary:
//
//   round k:  1. apply the adversary's crash decisions for round k;
//             2. send phase — every live process (and, via kernel-made
//                HaltedMessage dummies, every halted one) produces its
//                round-k broadcast; the adversary assigns each copy a fate
//                (deliver in-round / delay to a later round / lose);
//             3. receive phase — every process that completes the round
//                receives its in-round messages plus any delayed messages
//                falling due, updates its state, and possibly decides or
//                halts.
//
// Modelling decisions (DESIGN.md Sect. 4): self-delivery is unconditional
// and in-round; a crashed process neither sends (if before_send) nor
// receives in its crash round; pending messages to crashed receivers are
// dropped.
//
// The kernel records everything in a RunTrace; the independent Validator
// (validator.hpp) re-checks model conformance from the trace alone.
//
// execute_run is the one run path.  run_schedule below, run_and_check and
// the campaign engine's RunContext (harness.hpp) all call it, each with a
// KernelScratch of its own; a sweep worker reuses one across its runs.

#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/adversary.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"

namespace indulgence {

struct KernelOptions {
  Model model = Model::ES;

  /// Hard cap on executed rounds; hitting it marks the trace !terminated().
  Round max_rounds = 256;

  /// Stop as soon as every live process has decided (the usual mode).  When
  /// false, the kernel runs exactly max_rounds rounds (used by the explorer
  /// to examine fixed-length partial runs).
  bool stop_on_global_decision = true;
};

/// Per-worker scratch storage for the round loop.  A sweep worker keeps one
/// KernelScratch across millions of runs: execute_run clears the buffers
/// (retaining capacity) instead of reallocating them per run.  Algorithm
/// instances themselves are still factory-made each run — they are the
/// run's state — but every kernel-side container is reused.
struct KernelScratch {
  struct PendingMessage {
    Round deliver_round = 0;
    ProcessId receiver = -1;
    Envelope envelope;
  };
  struct Outgoing {
    ProcessId sender = -1;
    MessagePtr payload;
  };

  std::vector<std::unique_ptr<RoundAlgorithm>> algorithms;
  std::vector<char> alive;    ///< char, not bool: no bitset proxy churn
  std::vector<char> halted;
  std::vector<char> decided;
  std::vector<PendingMessage> pending;
  std::vector<Outgoing> outgoing;
  std::vector<Delivery> inboxes;
  /// Byzantine runs only (adversary.byzantine_budget() > 0): every sent
  /// payload, history[pid][round-1], so Replay lies can resend stale rounds.
  std::vector<std::vector<MessagePtr>> history;
};

/// Executes one run into `trace` (reset first), using `scratch` for every
/// kernel-side buffer.  The algorithm instances of the run are left in
/// `scratch.algorithms` for post-run inspection.  This is the one run path:
/// run_schedule, run_and_check and the campaign engine's RunContext all
/// call it.  Throws std::invalid_argument unless there are exactly n
/// proposals, none of them kBottom.
void execute_run(const SystemConfig& config, const KernelOptions& options,
                 const AlgorithmFactory& factory,
                 const std::vector<Value>& proposals, Adversary& adversary,
                 KernelScratch& scratch, RunTrace& trace);

/// Convenience wrapper: run a schedule in one call.
RunTrace run_schedule(SystemConfig config, KernelOptions options,
                      const AlgorithmFactory& factory,
                      const std::vector<Value>& proposals,
                      const RunSchedule& schedule);

}  // namespace indulgence
