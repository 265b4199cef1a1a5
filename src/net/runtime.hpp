// LiveRuntime: run any RoundAlgorithm — the seven consensus algorithms or
// the RSM replica — as a real concurrent service, one thread per process,
// exchanging messages through a fault-injecting router (live mode), the
// socket fabric (live mode over real sockets), or a schedule-replaying
// transport (scripted mode).  It is the one-group case of the driver
// runner (net/driver_runner) that run_sharded and ShardedNode share.
//
// Every mode ends in the same place as the lockstep kernel: a merged
// RunTrace re-checked by the independent model validator, wrapped in the
// familiar RunResult.  Scripted replays additionally reproduce the
// kernel's exact per-round delivery batches, so decision rounds can be
// asserted equal between the two execution engines on matched schedules.

#pragma once

#include <optional>
#include <vector>

#include "net/options.hpp"
#include "net/socket_transport.hpp"
#include "sim/harness.hpp"
#include "sim/process.hpp"
#include "sim/schedule.hpp"

namespace indulgence {

class LiveRuntime {
 public:
  explicit LiveRuntime(SystemConfig config, LiveOptions options = {});

  /// RSM and other services override "when is a process finished".
  void set_done_predicate(DonePredicate done) { done_ = std::move(done); }

  /// Benches hang per-round latency probes here.
  void set_observer(RoundObserver observer) { observer_ = std::move(observer); }

  /// Called once per run with the run's epoch (the steady_clock instant
  /// driver latencies are measured from), after the transport is up and
  /// before the driver threads start.  Client workload layers release
  /// their submitter threads here so client-to-commit latencies share the
  /// drivers' clock base.
  using StartHook = std::function<void(std::chrono::steady_clock::time_point)>;
  void set_start_hook(StartHook hook) { start_hook_ = std::move(hook); }

  /// Routes live runs over real sockets — the in-process SocketFabric with
  /// one group over n nodes, one endpoint per process, UDS or TCP loopback
  /// — instead of the fault-injecting router.  The router's latency/loss/
  /// partition knobs do not apply; wire chaos in `socket_options.chaos`
  /// takes their place.  Scripted replays are unaffected.
  void use_socket_transport(SocketAddress::Kind kind,
                            SocketTransportOptions socket_options = {});

  /// Supervisor counters aggregated over the last socket-transport run.
  const SocketCounters& socket_counters() const { return socket_counters_; }

  /// Live mode: wall-clock GST, router-injected latency / loss / partitions
  /// / crashes, post-hoc minimal conforming GST round in the trace.
  RunResult run(const AlgorithmFactory& factory,
                const std::vector<Value>& proposals);

  /// Scripted mode: replay `schedule` over real threads; the trace carries
  /// the schedule's own GST claim.
  RunResult replay(Model model, const RunSchedule& schedule,
                   const AlgorithmFactory& factory,
                   const std::vector<Value>& proposals);

  /// Algorithm instances of the last run, for state inspection.
  const AlgorithmInstances& algorithms() const { return algorithms_; }

  /// Copies dropped by fault injection in the last run (loss_prob or
  /// scripted Lose fates).
  long dropped_copies() const { return dropped_; }

 private:
  RunResult execute(const RunSchedule* schedule, Model model,
                    const AlgorithmFactory& factory,
                    const std::vector<Value>& proposals);

  SystemConfig config_;
  LiveOptions options_;
  DonePredicate done_;
  RoundObserver observer_;
  StartHook start_hook_;
  AlgorithmInstances algorithms_;
  long dropped_ = 0;
  std::optional<SocketAddress::Kind> socket_kind_;
  SocketTransportOptions socket_options_;
  SocketCounters socket_counters_;
};

/// One-shot live run with default predicates.
RunResult run_live(SystemConfig config, const LiveOptions& options,
                   const AlgorithmFactory& factory,
                   const std::vector<Value>& proposals);

/// One-shot scripted replay (the live counterpart of run_and_check).
RunResult replay_schedule_live(SystemConfig config, Model model,
                               const RunSchedule& schedule,
                               const AlgorithmFactory& factory,
                               const std::vector<Value>& proposals,
                               LiveOptions options = {});

}  // namespace indulgence
