#include "net/runtime.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "net/driver_runner.hpp"
#include "net/live_trace.hpp"
#include "net/router.hpp"
#include "net/script.hpp"
#include "net/sharded_runtime.hpp"

namespace indulgence {

LiveRuntime::LiveRuntime(SystemConfig config, LiveOptions options)
    : config_(config), options_(std::move(options)) {
  config_.validate();
}

void LiveRuntime::use_socket_transport(SocketAddress::Kind kind,
                                       SocketTransportOptions socket_options) {
  socket_kind_ = kind;
  socket_options_ = std::move(socket_options);
}

RunResult LiveRuntime::run(const AlgorithmFactory& factory,
                           const std::vector<Value>& proposals) {
  return execute(nullptr, Model::ES, factory, proposals);
}

RunResult LiveRuntime::replay(Model model, const RunSchedule& schedule,
                              const AlgorithmFactory& factory,
                              const std::vector<Value>& proposals) {
  return execute(&schedule, model, factory, proposals);
}

RunResult LiveRuntime::execute(const RunSchedule* schedule, Model model,
                               const AlgorithmFactory& factory,
                               const std::vector<Value>& proposals) {
  const int n = config_.n;
  if (static_cast<int>(proposals.size()) != n) {
    throw std::invalid_argument("live runtime: need one proposal per process");
  }
  if (schedule && schedule->byzantine_budget() > 0) {
    throw std::invalid_argument(
        "live runtime: scripted replay does not apply Byzantine events — "
        "replay lying schedules through the kernel, or drive live lies via "
        "LiveOptions::byzantine");
  }
  LiveMergeInput merge = declared_merge_input(config_, options_);

  // The mailboxes outlive the transports, which may push into them until
  // they stop.
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  mailboxes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    mailboxes.push_back(make_mailbox(config_, options_));
  }

  // One transport for the group: a scripted replay, the router, or the
  // socket fabric with one endpoint per process (a single group over n
  // nodes, so group_placement is the identity).  `supervised[pid]` is
  // process pid's view of it; scripted replays need no supervision.
  std::optional<ScriptView> script;
  std::unique_ptr<ScriptTransport> script_transport;
  std::unique_ptr<LiveRouter> router;
  std::unique_ptr<SocketFabric> fabric;
  std::vector<SupervisedTransport*> supervised;
  if (schedule) {
    script.emplace(config_, *schedule);
    script_transport =
        std::make_unique<ScriptTransport>(config_, *schedule, mailboxes);
  } else if (socket_kind_) {
    fabric = std::make_unique<SocketFabric>(n, *socket_kind_, socket_options_,
                                            options_.byzantine);
    const std::vector<int> members = group_placement(0, n, n);
    for (ProcessId pid = 0; pid < n; ++pid) {
      supervised.push_back(&fabric->host(
          0, config_, pid, members,
          mailboxes[static_cast<std::size_t>(pid)].get()));
    }
  } else {
    router = std::make_unique<LiveRouter>(config_, options_, mailboxes);
    supervised.assign(static_cast<std::size_t>(n), router.get());
  }

  RunControl control(config_);
  PulseBoard pulses;  // the group's shared pacemaker signal (in-process)
  control.on_stop = [&supervised] {
    for (SupervisedTransport* transport : supervised) transport->expedite();
  };

  const auto epoch = std::chrono::steady_clock::now();
  if (router) router->start(epoch);
  if (fabric) fabric->start(epoch);
  if (start_hook_) start_hook_(epoch);

  DriverRunner runner;
  for (ProcessId pid = 0; pid < n; ++pid) {
    DriverContext ctx;
    ctx.self = pid;
    ctx.config = config_;
    ctx.options = &options_;
    ctx.mailbox = mailboxes[static_cast<std::size_t>(pid)].get();
    ctx.control = &control;
    if (script) {
      ctx.transport = script_transport.get();
      ctx.script = &*script;
    } else {
      ctx.supervision = supervised[static_cast<std::size_t>(pid)];
      ctx.transport = ctx.supervision;
      ctx.pulses = &pulses;
    }
    ctx.factory = factory;
    ctx.proposal = proposals[static_cast<std::size_t>(pid)];
    ctx.done = done_;
    ctx.observer = observer_;
    ctx.epoch = epoch;
    runner.add(0, std::move(ctx));
  }
  GroupLogs group = std::move(runner.run([&] {
    if (router) return router->stop_and_flush();
    if (!fabric) return std::vector<UndeliveredCopy>{};
    std::vector<UndeliveredCopy> undelivered = fabric->stop();
    socket_counters_ = fabric->counters();
    return undelivered;
  })[0]);

  algorithms_ = std::move(group.algorithms);
  dropped_ = router             ? router->dropped_copies()
             : script_transport ? script_transport->dropped_copies()
                                : 0;

  merge.model = model;
  merge.gst_hint = schedule ? schedule->gst() : 0;
  merge.terminated = control.completed_normally();
  merge.logs = &group.logs;
  merge.undelivered = std::move(group.undelivered);
  return merge_and_judge(merge);
}

RunResult run_live(SystemConfig config, const LiveOptions& options,
                   const AlgorithmFactory& factory,
                   const std::vector<Value>& proposals) {
  LiveRuntime runtime(config, options);
  return runtime.run(factory, proposals);
}

RunResult replay_schedule_live(SystemConfig config, Model model,
                               const RunSchedule& schedule,
                               const AlgorithmFactory& factory,
                               const std::vector<Value>& proposals,
                               LiveOptions options) {
  LiveRuntime runtime(config, std::move(options));
  return runtime.replay(model, schedule, factory, proposals);
}

}  // namespace indulgence
