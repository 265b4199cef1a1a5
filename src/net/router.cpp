#include "net/router.hpp"

#include <algorithm>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace indulgence {

namespace {

/// Poll granularity of the router loop: how long it blocks on the inbound
/// channel when the release queue has nothing due sooner.
constexpr std::chrono::microseconds kMaxPoll{500};

}  // namespace

LiveRouter::LiveRouter(SystemConfig config, const LiveOptions& options,
                       std::vector<std::unique_ptr<Mailbox>>& mailboxes)
    : config_(config),
      options_(options),
      mailboxes_(&mailboxes),
      inbound_(options.mailbox_capacity),
      byz_(options.byzantine),
      rng_(Rng::for_stream(options.seed, 0x9e7u)) {}

LiveRouter::~LiveRouter() { stop_and_flush(); }

void LiveRouter::start(Clock::time_point epoch) {
  epoch_ = epoch;
  thread_ = std::thread([this] { loop(); });
}

void LiveRouter::dispatch(ProcessId sender, Round round, MessagePtr payload) {
  inbound_.push(Inbound{sender, round, std::move(payload)});
}

void LiveRouter::mark_dead(ProcessId pid) {
  dead_mask_.fetch_or(std::uint64_t{1} << static_cast<unsigned>(pid),
                      std::memory_order_acq_rel);
}

void LiveRouter::expedite() {
  expedited_.store(true, std::memory_order_release);
}

std::vector<UndeliveredCopy> LiveRouter::stop_and_flush() {
  if (flushed_) return {};
  flushed_ = true;
  expedite();
  inbound_.close();
  if (thread_.joinable()) thread_.join();
  return std::move(undelivered_);
}

void LiveRouter::release_due(Clock::time_point now) {
  const bool all = expedited_.load(std::memory_order_acquire);
  while (!queue_.empty() && (all || queue_.top().release <= now)) {
    const Queued& top = queue_.top();
    if (!dead(top.receiver)) {
      Mailbox& box = *(*mailboxes_)[static_cast<std::size_t>(top.receiver)];
      if (!box.push(top.envelope)) {
        undelivered_.push_back(UndeliveredCopy{top.envelope.sender,
                                               top.receiver,
                                               top.envelope.send_round, 0});
      }
    }
    queue_.pop();
  }
}

void LiveRouter::fan_out(const Inbound& item, Clock::time_point now) {
  const auto offset =
      std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_);
  const bool expedited = expedited_.load(std::memory_order_acquire);
  const bool pre_gst = !expedited && offset < options_.gst;
  const bool lossy = pre_gst && options_.loss_prob > 0.0;
  const LatencyModel& model = pre_gst ? options_.pre_gst : options_.post_gst;

  if (byz_.active()) byz_.note_send(item.sender, item.round, item.payload);

  // Queues ONE copy through the fault pipeline (loss, latency, partition
  // holds), exactly the pre-Byzantine per-receiver path: with an inactive
  // planner the RNG draw stream is byte-identical to the historical one.
  auto queue_copy = [&](ProcessId receiver, ProcessId claimed,
                        ProcessId origin, MessagePtr payload) {
    if (lossy && rng_.next_double() < options_.loss_prob) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Clock::time_point release = now;
    if (!expedited) {
      auto latency = model.floor;
      if (model.jitter.count() > 0) {
        latency += std::chrono::microseconds{rng_.next_below(
            static_cast<std::uint64_t>(model.jitter.count()) + 1)};
      }
      release += latency;
      for (const PartitionSpec& p : options_.partitions) {
        if (p.group.contains(item.sender) == p.group.contains(receiver)) {
          continue;  // both sides of the cut, or neither
        }
        auto heal = p.until;
        if (options_.gst.count() > 0) heal = std::min(heal, options_.gst);
        if (offset >= p.from && offset < heal) {
          release = std::max(release, epoch_ + heal + model.floor);
        }
      }
    }
    queue_.push(Queued{release, seq_++, receiver,
                       NetEnvelope{claimed, item.round, 0, 0,
                                   std::move(payload), origin}});
  };

  for (ProcessId receiver = 0; receiver < config_.n; ++receiver) {
    if (receiver == item.sender || dead(receiver)) continue;
    if (!byz_.active()) {
      queue_copy(receiver, item.sender, -1, item.payload);
      continue;
    }
    for (ByzantinePlanner::Copy& copy :
         byz_.copies_for(item.sender, item.round, receiver, item.payload)) {
      queue_copy(receiver, copy.sender, copy.origin, std::move(copy.payload));
    }
  }
}

void LiveRouter::loop() {
#if defined(__linux__)
  // A post-GST copy is due 20-100 us after its dispatch by default, and the
  // kernel's default 50 us timer slack would let the timed wait below fire
  // up to that much past the release instant.  1 ns is the smallest slack;
  // 0 would restore the default.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  for (;;) {
    const Clock::time_point now = Clock::now();
    release_due(now);

    auto poll = kMaxPoll;
    if (!queue_.empty()) {
      const auto until_next =
          std::chrono::duration_cast<std::chrono::microseconds>(
              queue_.top().release - now);
      poll = std::clamp(until_next, std::chrono::microseconds{0}, kMaxPoll);
    }
    if (auto item = inbound_.pop_for(poll)) {
      fan_out(*item, Clock::now());
    } else if (inbound_.closed()) {
      // Drain whatever raced with close(), then flush the queue.  Expedited
      // mode (set before close in stop_and_flush) releases everything the
      // flush can still deliver; anything left is genuinely undeliverable.
      while (auto rest = inbound_.try_pop()) fan_out(*rest, Clock::now());
      release_due(Clock::now());
      while (!queue_.empty()) {
        const Queued& top = queue_.top();
        if (!dead(top.receiver)) {
          undelivered_.push_back(UndeliveredCopy{top.envelope.sender,
                                                 top.receiver,
                                                 top.envelope.send_round, 0});
        }
        queue_.pop();
      }
      return;
    }
  }
}

}  // namespace indulgence
