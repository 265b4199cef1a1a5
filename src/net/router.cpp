#include "net/router.hpp"

#include <algorithm>
#include <utility>

namespace indulgence {

LiveRouter::LiveRouter(SystemConfig config, const LiveOptions& options,
                       std::vector<std::unique_ptr<Mailbox>>& mailboxes)
    : config_(config),
      options_(options),
      mailboxes_(&mailboxes),
      byz_(options.byzantine),
      rng_(Rng::for_stream(options.seed, 0x9e7u)) {}

void LiveRouter::mark_dead(ProcessId pid) {
  std::lock_guard<std::mutex> lock(mutex_);
  dead_mask_ |= std::uint64_t{1} << static_cast<unsigned>(pid);
}

void LiveRouter::expedite() {
  std::lock_guard<std::mutex> lock(mutex_);
  expedited_ = true;
  for (const auto& box : *mailboxes_) box->expedite();
}

void LiveRouter::dispatch(ProcessId sender, Round round, MessagePtr payload) {
  const Clock::time_point now = Clock::now();
  const auto offset =
      std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_);
  // The pushes below run under the lock and never block on a full mailbox:
  // make_mailbox sizes every mailbox for the whole run.
  std::lock_guard<std::mutex> lock(mutex_);
  const bool pre_gst = !expedited_ && offset < options_.gst;
  const bool lossy = pre_gst && options_.loss_prob > 0.0;
  const LatencyModel& model = pre_gst ? options_.pre_gst : options_.post_gst;

  if (byz_.active()) byz_.note_send(sender, round, payload);

  // Sends ONE copy through the fault pipeline (loss, latency, partition
  // holds), exactly the pre-Byzantine per-receiver path: with an inactive
  // planner the RNG draw stream is byte-identical to the historical one.
  auto send_copy = [&](ProcessId receiver, ProcessId claimed, ProcessId origin,
                       MessagePtr copy) {
    if (lossy && rng_.next_double() < options_.loss_prob) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Clock::time_point release = now;
    if (!expedited_) {
      auto latency = model.floor;
      if (model.jitter.count() > 0) {
        latency += std::chrono::microseconds{rng_.next_below(
            static_cast<std::uint64_t>(model.jitter.count()) + 1)};
      }
      release += latency;
      for (const PartitionSpec& p : options_.partitions) {
        if (p.group.contains(sender) == p.group.contains(receiver)) {
          continue;  // both sides of the cut, or neither
        }
        auto heal = p.until;
        if (options_.gst.count() > 0) heal = std::min(heal, options_.gst);
        if (offset >= p.from && offset < heal) {
          release = std::max(release, epoch_ + heal + model.floor);
        }
      }
    }
    (*mailboxes_)[static_cast<std::size_t>(receiver)]->push_at(
        NetEnvelope{claimed, round, 0, 0, std::move(copy), origin}, release);
  };

  for (ProcessId receiver = 0; receiver < config_.n; ++receiver) {
    if (receiver == sender ||
        ((dead_mask_ >> static_cast<unsigned>(receiver)) & 1u)) {
      continue;
    }
    if (!byz_.active()) {
      send_copy(receiver, sender, -1, payload);
      continue;
    }
    for (ByzantinePlanner::Copy& copy :
         byz_.copies_for(sender, round, receiver, payload)) {
      send_copy(receiver, copy.sender, copy.origin, std::move(copy.payload));
    }
  }
}

}  // namespace indulgence
