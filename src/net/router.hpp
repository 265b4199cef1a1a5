// The live runtime's network: a router thread that applies per-link latency
// distributions, probabilistic loss, partitions, and a wall-clock GST to
// every broadcast copy before handing it to the receiver's mailbox.
//
// Faults are an era of the clock, not of the rounds: a copy *sent* before
// the GST offset may be slow (pre_gst latency), dropped (loss_prob), or
// held by an active partition; a copy sent at or after GST obeys the
// post_gst bound and is never lost.  Partitions hold messages rather than
// dropping them (ES channels are reliable) and heal at their own `until`
// or at GST, whichever comes first.
//
// All routing state — the release-time priority queue and the fault RNG —
// is owned by the router thread alone; drivers talk to the router only
// through its inbound channel and a few atomics, keeping the whole design
// ThreadSanitizer-clean by construction.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/byzantine_planner.hpp"
#include "net/options.hpp"
#include "net/transport.hpp"

namespace indulgence {

class LiveRouter final : public SupervisedTransport {
 public:
  using Clock = std::chrono::steady_clock;

  LiveRouter(SystemConfig config, const LiveOptions& options,
             std::vector<std::unique_ptr<Mailbox>>& mailboxes);
  ~LiveRouter() override;

  /// Starts the router thread; `epoch` is the run's t=0 for GST and
  /// partition windows.
  void start(Clock::time_point epoch);

  void dispatch(ProcessId sender, Round round, MessagePtr payload) override;

  void mark_dead(ProcessId pid) override;

  /// Shutdown-drain accelerator: release every queued copy immediately and
  /// stop injecting loss, so the final rounds settle fast.
  void expedite() override;

  /// Stops the router thread and returns the copies that never reached a
  /// mailbox (they become the trace's pending records).  Idempotent.
  std::vector<UndeliveredCopy> stop_and_flush();

  /// Copies dropped by loss injection (not by dead-receiver filtering).
  long dropped_copies() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Inbound {
    ProcessId sender = -1;
    Round round = 0;
    MessagePtr payload;
  };
  struct Queued {
    Clock::time_point release;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal release times
    ProcessId receiver = -1;
    NetEnvelope envelope;
  };
  struct LaterFirst {
    bool operator()(const Queued& a, const Queued& b) const {
      return a.release > b.release || (a.release == b.release && a.seq > b.seq);
    }
  };

  void loop();
  void fan_out(const Inbound& item, Clock::time_point now);
  void release_due(Clock::time_point now);
  bool dead(ProcessId pid) const {
    return (dead_mask_.load(std::memory_order_acquire) >>
            static_cast<unsigned>(pid)) &
           1u;
  }

  SystemConfig config_;
  LiveOptions options_;
  std::vector<std::unique_ptr<Mailbox>>* mailboxes_;
  Channel<Inbound> inbound_;

  // Router-thread-only state.
  std::priority_queue<Queued, std::vector<Queued>, LaterFirst> queue_;
  ByzantinePlanner byz_;
  Rng rng_;
  std::uint64_t seq_ = 0;
  std::vector<UndeliveredCopy> undelivered_;

  std::thread thread_;
  Clock::time_point epoch_;
  std::atomic<bool> expedited_{false};
  std::atomic<std::uint64_t> dead_mask_{0};
  std::atomic<long> dropped_{0};
  bool flushed_ = false;
};

}  // namespace indulgence
