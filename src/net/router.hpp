// The live runtime's network: per-link latency distributions, probabilistic
// loss, partitions, and a wall-clock GST, applied to every broadcast copy
// before it enters its receiver's mailbox, due at its release instant.
//
// Faults are an era of the clock, not of the rounds: a copy *sent* before
// the GST offset may be slow (pre_gst latency), dropped (loss_prob), or
// held by an active partition; a copy sent at or after GST obeys the
// post_gst bound and is never lost.  Partitions hold messages rather than
// dropping them (ES channels are reliable) and heal at their own `until`
// or at GST, whichever comes first.
//
// The router has no thread: dispatch draws every copy's fate on the sender's
// thread, under one mutex over the fault RNG, the Byzantine planner and the
// dead set, and the receiver's own timed pop on its mailbox releases the copy
// when due.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/byzantine_planner.hpp"
#include "net/options.hpp"
#include "net/transport.hpp"

namespace indulgence {

class LiveRouter final : public Transport {
 public:
  using Clock = std::chrono::steady_clock;

  LiveRouter(SystemConfig config, const LiveOptions& options,
             std::vector<std::unique_ptr<Mailbox>>& mailboxes);

  /// Sets the run's t=0 for GST and partition windows.
  void start(Clock::time_point epoch) { epoch_ = epoch; }

  /// Draws every copy's fate at the dispatch instant and pushes it into its
  /// receiver's mailbox, due at its release instant.
  void dispatch(ProcessId sender, Round round, MessagePtr payload) override;

  /// Later copies skip `pid`.  Its driver has returned, so the copies
  /// already in its mailbox are never popped; teardown drains them and the
  /// merge drops pending copies addressed to a crashed process.
  void mark_dead(ProcessId pid) override;

  /// Shutdown-drain accelerator: every copy in flight, and every later one,
  /// is due at once and loss stops, so the final rounds settle fast.
  void expedite() override;

  /// Copies dropped by loss injection (not by dead-receiver filtering).
  long dropped_copies() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  SystemConfig config_;
  LiveOptions options_;
  std::vector<std::unique_ptr<Mailbox>>* mailboxes_;
  Clock::time_point epoch_;
  std::atomic<long> dropped_{0};

  // Fan-out state; every driver thread dispatches, so mutex_ guards it all.
  std::mutex mutex_;
  ByzantinePlanner byz_;
  Rng rng_;
  std::uint64_t dead_mask_ = 0;
  bool expedited_ = false;
};

}  // namespace indulgence
