// The client workload fleet: concurrent closed-loop / open-loop command
// submitters layered over the RSM's pull-based ingest API.
//
// Shape of a campaign:
//
//   client threads --push--> per-(group, replica) IngestQueue
//     --RsmCommandSource pull--> RsmReplica slots (driver threads)
//     --RsmCommitCallback--> fleet ack path (latency histogram, samples;
//        a closed-loop ack pushes its replacement to the IngestQueue)
//
// Loop modes:
//   * Closed — each client keeps exactly `outstanding` commands in flight
//     and submits a replacement on every ack: the classic
//     fixed-concurrency throughput probe.  The ack path submits it on the
//     committing driver thread, so no ack wakes a client thread; the
//     client thread only fills the window at start and refills what
//     ack-timeout abandonment frees.
//   * OpenPoisson / OpenBursty — arrivals follow a deterministic seeded
//     ArrivalProcess regardless of acks (the latency-under-offered-load
//     probe); the client thread wakes only at its next arrival instant.
//     Bursty arrivals alternate ArrivalOptions' 20 ms ON and OFF windows.
//     Backpressure is explicit: when a client's pending window is full,
//     the arrival is SHED and counted, never queued — an open-loop client
//     must not silently turn into a closed-loop one.
//
// Exactly-once by construction: every command is encoded with its owning
// (client, seq), pushed to exactly one home replica's queue, and proposed
// by at most one live slot at a time (the RSM's inflight set); a command
// that loses its slot retries on the same replica.  Ack timeouts only
// ABANDON a command in the client's accounting (frees the window slot,
// counted, late commits tracked separately) — they never resubmit, because
// a second proposer is exactly what could commit a command twice.
//
// After the run, check_ingest_oracle (campaign.hpp) re-derives the ledger
// from the committed logs themselves and cross-checks this accounting.
// Throughput samples count acks per 250 ms bin, a constant of
// workload.cpp.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/arrivals.hpp"
#include "client/histogram.hpp"
#include "common/types.hpp"
#include "net/options.hpp"
#include "rsm/rsm.hpp"

namespace indulgence::client {

enum class LoopMode { Closed, OpenPoisson, OpenBursty };

struct WorkloadOptions {
  LoopMode mode = LoopMode::Closed;
  int num_clients = 8;
  int outstanding = 4;  ///< closed loop: commands in flight per client

  // Open loop --------------------------------------------------------------
  double target_rate_per_sec = 2000.0;  ///< aggregate offered rate
  int pending_window = 256;  ///< per-client in-flight cap before shedding

  // Campaign controller ----------------------------------------------------
  long warmup_commands = 0;       ///< acks before the measure window opens
  long measure_commands = 1000;   ///< measured acks to collect
  /// 0 = wait forever; > 0 = a command unacked this long is abandoned in
  /// the client's books (never resubmitted — see the header comment).
  std::chrono::microseconds ack_timeout{0};
  /// Hard wall cap: the fleet declares itself done at this offset even if
  /// the ack target was not reached, so every campaign shuts down through
  /// the armed-stop path and still merges + validates its trace.
  std::chrono::microseconds deadline{60'000'000};

  std::uint64_t seed = 1;
};

// --- command codec ---------------------------------------------------------
// cmd = (seq + 1) << 16 | client.  The slot algorithms commit the MINIMUM
// proposed estimate, so the sequence number must dominate the ordering:
// encoding the client id in the high bits would starve high-id clients
// under sustained load, while seq-major encoding interleaves clients into
// an approximately global FIFO.  All encodings are >= 2^16, far from
// kNoOpCommand / kBottom and the max-side no-op sentinels.

inline constexpr int kClientBits = 16;

inline Value encode_command(int client, long seq) {
  return (static_cast<Value>(seq + 1) << kClientBits) |
         static_cast<Value>(client);
}

struct CommandId {
  int client = 0;
  long seq = 0;
};

inline std::optional<CommandId> decode_command(Value v, int num_clients) {
  if (v < (Value{1} << kClientBits)) return std::nullopt;
  const int client = static_cast<int>(v & ((Value{1} << kClientBits) - 1));
  if (client >= num_clients) return std::nullopt;
  return CommandId{client, static_cast<long>(v >> kClientBits) - 1};
}

/// What the fleet's books say happened to one (client, seq).
enum class CommandState : std::uint8_t {
  Pending = 0,    ///< submitted, no ack yet
  Acked = 1,      ///< commit observed while waiting
  Abandoned = 2,  ///< ack_timeout expired; window slot freed
  AckedLate = 3,  ///< committed after being abandoned
  Shed = 4,       ///< open-loop arrival dropped at a full window
};

/// One home replica's command feed: clients push, the replica's driver
/// thread pulls through its RsmCommandSource.
class IngestQueue {
 public:
  void push(Value v) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(v);
    ++pushed_;
  }

  std::optional<Value> pull() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    const Value v = queue_.front();
    queue_.pop_front();
    return v;
  }

  long pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }

 private:
  mutable std::mutex mutex_;
  std::deque<Value> queue_;
  long pushed_ = 0;
};

/// Fleet-level accounting, all derived from per-client books at finish().
struct FleetCounters {
  long submitted = 0;
  long acked = 0;  ///< on-time acks (excludes late)
  long shed = 0;
  long abandoned = 0;  ///< still unacked at stop (late acks moved out)
  long late_acks = 0;
  long pending_at_stop = 0;
  long warmup_acked = 0;
  long measured_acked = 0;
};

class ClientFleet {
 public:
  /// `num_groups` x `replicas_per_group` home queues; single-group targets
  /// pass num_groups = 1.
  ClientFleet(const WorkloadOptions& options, int num_groups,
              int replicas_per_group);
  ~ClientFleet();

  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  // --- RSM plumbing --------------------------------------------------------

  RsmCommandSource source_for(GroupId group, ProcessId pid);
  RsmCommitCallback commit_for(GroupId group, ProcessId pid);

  /// Armed-stop predicate for the runtimes: ack target reached, or the
  /// wall deadline passed (hit_deadline() tells which).
  DonePredicate done_predicate();

  /// Home routing, exposed so the oracle can re-derive it from a committed
  /// value alone.
  GroupId group_of(Value command) const;
  ProcessId home_replica_of(Value command) const;

  // --- lifecycle -----------------------------------------------------------

  /// Launches the client threads against `epoch` (the runtimes' clock
  /// base, delivered through their start hooks).
  void start(std::chrono::steady_clock::time_point epoch);

  /// Stops and joins the client threads; all post-run accessors below are
  /// valid (and single-threaded) afterwards.
  void finish();

  // --- post-run ------------------------------------------------------------

  const WorkloadOptions& options() const { return options_; }
  int num_groups() const { return num_groups_; }
  int replicas_per_group() const { return replicas_; }

  bool target_reached() const {
    return total_acked_.load(std::memory_order_relaxed) >= ack_target_;
  }
  bool hit_deadline() const { return hit_deadline_.load(); }
  /// A commit callback saw a command the books say was never submitted
  /// (shed, unknown seq, or undecodable non-noop) — oracle-fatal.
  bool saw_phantom_commit() const { return phantom_.load(); }

  FleetCounters counters() const;
  LatencyHistogram merged_measure_histogram() const;
  LatencyHistogram merged_warmup_histogram() const;
  /// Acks per 250 ms bin, trimmed to the last non-empty bin.
  std::vector<long> throughput_samples() const;
  /// Span of the measure window (first to last measured ack), seconds.
  double measured_span_seconds() const;
  /// Span of the offered load (first to last arrival incl. shed), seconds.
  double offered_span_seconds() const;
  long total_offered() const;  ///< submitted + shed arrivals

  CommandState state_of(int client, long seq) const;
  long seqs_of(int client) const;

 private:
  struct Client {
    int id = 0;
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    std::unordered_map<long, std::uint64_t> outstanding;  ///< seq -> µs
    std::vector<CommandState> states;  ///< index = seq
    long shed = 0;
    long abandoned = 0;
    long late_acks = 0;
    LatencyHistogram warmup_hist;
    LatencyHistogram measure_hist;
    std::unique_ptr<ArrivalProcess> arrivals;
  };

  std::uint64_t now_us() const;
  void submit_locked(Client& c);
  void shed_locked(Client& c);
  void abandon_expired_locked(Client& c);
  void note_arrival(std::uint64_t at_us);
  void closed_loop(Client& c);
  void open_loop(Client& c);
  void on_commit(Value value);

  WorkloadOptions options_;
  int num_groups_ = 1;
  int replicas_ = 3;
  long ack_target_ = 0;

  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<IngestQueue>> queues_;  ///< [group * R + pid]

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> hit_deadline_{false};
  std::atomic<bool> phantom_{false};
  bool finished_ = false;
  std::chrono::steady_clock::time_point epoch_{};
  std::chrono::steady_clock::time_point deadline_at_{
      std::chrono::steady_clock::time_point::max()};

  std::atomic<long> total_submitted_{0};
  std::atomic<long> total_acked_{0};
  std::atomic<std::uint64_t> first_measured_us_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> last_measured_us_{0};
  std::atomic<std::uint64_t> first_arrival_us_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> last_arrival_us_{0};
  std::vector<std::atomic<long>> bins_;
};

}  // namespace indulgence::client
