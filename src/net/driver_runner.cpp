#include "net/driver_runner.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>

namespace indulgence {

std::unique_ptr<Mailbox> make_mailbox(const SystemConfig& config,
                                      const LiveOptions& options) {
  // A mailbox reserves nothing, so the floor costs no memory.
  constexpr std::size_t kFloor = 1 << 14;
  return std::make_unique<Mailbox>(
      std::max(kFloor, static_cast<std::size_t>(config.n) *
                           (static_cast<std::size_t>(options.max_rounds) + 8)));
}

void DriverRunner::add_group(GroupId group, const DriverContext& shared,
                             const std::vector<HostedReplica>& replicas) {
  Group& state = groups_.try_emplace(group, shared.config).first->second;
  state.fixed_rounds = shared.fixed_rounds;
  // A pacemaker board is shared memory: it reaches every follower only when
  // the whole group runs in this process.
  if (static_cast<int>(replicas.size()) == shared.config.n) {
    state.pulses = std::make_unique<PulseBoard>();
  }
  state.control.on_stop = [replicas] {
    for (const HostedReplica& replica : replicas) replica.transport->expedite();
  };

  for (const HostedReplica& replica : replicas) {
    DriverContext ctx = shared;
    ctx.self = replica.self;
    ctx.transport = replica.transport;
    ctx.mailbox = replica.mailbox;
    ctx.proposal = replica.proposal;
    ctx.control = &state.control;
    ctx.pulses = state.pulses.get();
    entries_.push_back(Entry{group, replica.self, replica.mailbox,
                             std::make_unique<RoundDriver>(std::move(ctx))});
  }
}

std::map<GroupId, GroupLogs> DriverRunner::run(
    const std::function<std::vector<UndeliveredCopy>()>& stop) {
  std::vector<std::thread> threads;
  threads.reserve(entries_.size());
  for (Entry& entry : entries_) {
    threads.emplace_back([&entry] {
      entry.driver->run();
      entry.exited = std::chrono::steady_clock::now();
    });
  }
  for (std::thread& t : threads) t.join();

  std::map<GroupId, GroupLogs> groups;
  if (stop) {
    for (UndeliveredCopy& copy : stop()) {
      groups[copy.group].undelivered.push_back(copy);
    }
  }
  for (Entry& entry : entries_) {
    for (NetEnvelope& env : entry.mailbox->drain()) {
      groups[entry.group].undelivered.push_back(UndeliveredCopy{
          env.sender, entry.self, env.send_round, env.target_round,
          entry.group});
    }
  }

  // Prefer a root-cause error over the cascade of "aborted by peer
  // failure" errors an abort fans out to the other drivers.
  std::exception_ptr fallback;
  for (const Entry& entry : entries_) {
    std::exception_ptr error = entry.driver->error();
    if (!error) continue;
    if (!fallback) fallback = error;
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& ex) {
      if (std::string(ex.what()).find("aborted") == std::string::npos) throw;
    }
  }
  if (fallback) std::rethrow_exception(fallback);

  for (Entry& entry : entries_) {
    GroupLogs& group = groups[entry.group];
    group.logs.push_back(std::move(entry.driver->log()));
    group.algorithms.push_back(entry.driver->take_algorithm());
    group.last_exit = std::max(group.last_exit, entry.exited);
  }
  for (const auto& [id, state] : groups_) {
    groups[id].terminated =
        state.fixed_rounds > 0 || state.control.completed_normally();
  }
  return groups;
}

}  // namespace indulgence
