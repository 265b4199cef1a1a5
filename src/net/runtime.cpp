#include "net/runtime.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "net/driver_runner.hpp"
#include "net/live_trace.hpp"
#include "net/router.hpp"
#include "net/script.hpp"

namespace indulgence {

LiveRuntime::LiveRuntime(SystemConfig config, LiveOptions options)
    : config_(config), options_(std::move(options)) {
  config_.validate();
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

  // One transport for the group: a scripted replay or the router.
  std::optional<ScriptView> script;
  std::unique_ptr<ScriptTransport> script_transport;
  std::unique_ptr<LiveRouter> router;
  Transport* transport = nullptr;
  if (schedule) {
    script.emplace(config_, *schedule);
    script_transport =
        std::make_unique<ScriptTransport>(config_, *schedule, mailboxes);
    transport = script_transport.get();
  } else {
    router = std::make_unique<LiveRouter>(config_, options_, mailboxes);
    transport = router.get();
  }

  const auto epoch = std::chrono::steady_clock::now();
  if (router) router->start(epoch);
  if (start_hook_) start_hook_(epoch);

  std::vector<HostedReplica> replicas;
  for (ProcessId pid = 0; pid < n; ++pid) {
    replicas.push_back(HostedReplica{
        pid, mailboxes[static_cast<std::size_t>(pid)].get(), transport,
        proposals[static_cast<std::size_t>(pid)]});
  }
  DriverRunner runner;
  runner.add_group(0,
                   DriverContext{.config = config_,
                                 .options = &options_,
                                 .script = script ? &*script : nullptr,
                                 .factory = factory,
                                 .done = done_,
                                 .observer = observer_,
                                 .epoch = epoch},
                   replicas);
  GroupLogs group = std::move(runner.run()[0]);

  algorithms_ = std::move(group.algorithms);
  dropped_ = router ? router->dropped_copies()
                    : script_transport->dropped_copies();

  merge.model = model;
  merge.gst_hint = schedule ? schedule->gst() : 0;
  merge.terminated = group.terminated;
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
