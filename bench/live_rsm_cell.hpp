// The live RSM cell the X5, X5-socket, X8 and X9 benches share: an n-slot
// RSM over fixed per-replica command queues, run once on the live runtime's
// router, or over the in-process socket fabric as one group of run_sharded,
// with per-slot commit latencies read from the drivers' round clocks.

#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "net/runtime.hpp"
#include "net/sharded_runtime.hpp"
#include "rsm/rsm.hpp"

namespace indulgence::bench {

/// Replica `id`'s command queue: `per_replica` commands 100 (id + 1) + i.
inline std::function<std::vector<Value>(ProcessId)> streams(int per_replica) {
  return [per_replica](ProcessId id) {
    std::vector<Value> cmds;
    for (int i = 0; i < per_replica; ++i) cmds.push_back(100 * (id + 1) + i);
    return cmds;
  };
}

struct LiveRsmOutcome {
  bool committed = false;    ///< every live replica committed every slot
  bool trace_valid = false;  ///< the merged trace passed the validator
  Round rounds = 0;
  Round gst_round = 0;
  double seconds = 0;  ///< wall clock of the run
  /// Per (live replica, slot): from the end of the round before the slot
  /// opened to the end of its commit round.
  std::vector<double> latencies_us;
  SocketCounters counters;  ///< zero unless the cell ran over sockets
};

/// Runs `slots` commands per replica through an RSM of `slot_factory`
/// instances, `window` rounds apart, until every live replica committed
/// them all.  With `socket` set, the run goes over the in-process socket
/// fabric of that kind (one group over n nodes) instead of the router.
inline LiveRsmOutcome run_live_rsm(
    const SystemConfig& cfg, int slots, Round window,
    const AlgorithmFactory& slot_factory, const LiveOptions& options,
    std::optional<SocketAddress::Kind> socket = std::nullopt,
    const SocketTransportOptions& socket_options = {}) {
  const DonePredicate done = [](const RoundAlgorithm& algorithm) {
    const auto* rep = dynamic_cast<const RsmReplica*>(&algorithm);
    return rep && rep->all_slots_committed();
  };

  // Per-process wall-clock of each completed round; each slot is touched
  // only by its own driver thread.
  std::vector<std::vector<double>> round_us(static_cast<std::size_t>(cfg.n));
  const RoundObserver observer = [&round_us](
                                     ProcessId pid, Round k,
                                     const RoundAlgorithm&,
                                     std::chrono::microseconds since_start) {
    auto& mine = round_us[static_cast<std::size_t>(pid)];
    if (static_cast<Round>(mine.size()) < k) {
      mine.resize(static_cast<std::size_t>(k), 0);
    }
    mine[static_cast<std::size_t>(k) - 1] =
        static_cast<double>(since_start.count());
  };

  RsmOptions opt;
  opt.num_slots = slots;
  opt.slot_window = window;
  const AlgorithmFactory factory =
      rsm_factory(slot_factory, streams(slots), opt);

  LiveRuntime runtime(cfg, options);  // runs only without `socket`
  runtime.set_done_predicate(done);
  runtime.set_observer(observer);
  ShardedResult sharded;
  RunResult routed;
  Stopwatch watch;
  if (socket) {
    ShardedOptions sharded_options;
    sharded_options.num_nodes = cfg.n;
    sharded_options.num_groups = 1;
    sharded_options.config = cfg;
    sharded_options.live = options;
    sharded_options.kind = *socket;
    sharded_options.socket = socket_options;
    sharded_options.done = done;
    sharded_options.observer = observer;
    sharded = run_sharded(
        sharded_options, [&factory](GroupId) { return factory; },
        [&cfg](GroupId) { return distinct_proposals(cfg.n); });
  } else {
    routed = runtime.run(factory, distinct_proposals(cfg.n));
  }

  LiveRsmOutcome out;
  out.seconds = watch.seconds();
  const RunResult& result = socket ? sharded.groups.at(0).result : routed;
  const AlgorithmInstances& algorithms =
      socket ? sharded.groups.at(0).algorithms : runtime.algorithms();
  out.trace_valid = result.validation.ok();
  out.rounds = result.trace.rounds_executed();
  out.gst_round = result.trace.gst();
  out.counters = sharded.counters;
  out.committed = true;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    if (result.trace.crashed().contains(pid)) continue;
    const auto* rep = dynamic_cast<const RsmReplica*>(
        algorithms[static_cast<std::size_t>(pid)].get());
    if (!rep || !rep->all_slots_committed()) {
      out.committed = false;
      continue;
    }
    const auto& mine = round_us[static_cast<std::size_t>(pid)];
    for (int s = 0; s < slots; ++s) {
      const Round commit = rep->commit_round(s);
      const Round open = static_cast<Round>(s) * window + 1;
      if (commit < 1 || static_cast<std::size_t>(commit) > mine.size()) {
        continue;
      }
      const double opened =
          open >= 2 ? mine[static_cast<std::size_t>(open) - 2] : 0.0;
      out.latencies_us.push_back(
          mine[static_cast<std::size_t>(commit) - 1] - opened);
    }
  }
  return out;
}

}  // namespace indulgence::bench
