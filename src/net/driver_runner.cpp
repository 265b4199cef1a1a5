#include "net/driver_runner.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>

namespace indulgence {

std::unique_ptr<Mailbox> make_mailbox(const SystemConfig& config,
                                      const LiveOptions& options) {
  return std::make_unique<Mailbox>(
      std::max(options.mailbox_capacity,
               static_cast<std::size_t>(config.n) *
                   (static_cast<std::size_t>(options.max_rounds) + 8)));
}

void DriverRunner::add(GroupId group, DriverContext ctx) {
  Entry entry;
  entry.group = group;
  entry.self = ctx.self;
  entry.mailbox = ctx.mailbox;
  entry.driver = std::make_unique<RoundDriver>(std::move(ctx));
  entries_.push_back(std::move(entry));
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
  for (UndeliveredCopy& copy : stop()) {
    groups[copy.group].undelivered.push_back(copy);
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
  return groups;
}

}  // namespace indulgence
