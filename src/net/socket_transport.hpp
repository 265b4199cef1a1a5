// A supervised socket transport: the live runtime's Transport over real
// TCP (localhost) or Unix-domain stream sockets.
//
// The transport is split into two layers:
//
//   * The LINK layer is per peer *node* (OS process), not per consensus
//     group.  Every node owns a SocketEndpoint — one listening socket plus
//     one outbound link per peer node, each driven by a supervisor thread
//     owning the connection lifecycle:
//
//       DISCONNECTED --connect ok--> CONNECTED --io error/heartbeat
//            ^    \                      |        timeout/injected reset
//            |     +--connect fail       |
//            |            |              v
//            +--backoff---+------- DISCONNECTED (retry forever)
//
//     Reconnect/backoff, heartbeats, and the reliable seq/ack machinery
//     all live here, once per link: envelopes of every group hosted on the
//     node share one sequence space per link, one hold queue, one
//     supervisor.  A reconnect storm on one peer link is one link's
//     problem, however many groups ride on it.
//
//   * The DEMUX layer is per consensus group.  A node registers the groups
//     it hosts (add_group) before start(); each decoded ENVELOPE2 carries
//     its owning GroupId and is routed — after per-link dedup — to the
//     owning replica's mailbox.  The routing table is immutable after
//     start(), so reader threads demultiplex without taking a lock, and no
//     group's slow consumer can head-of-line block another group: mailbox
//     pushes go to per-group channels sized for the whole run.
//
// Reconnects use exponential backoff with decorrelated jitter
// (next_backoff below — a pure function of (policy, previous, rng), so the
// schedule is unit-testable without sleeping).  Indulgence is the design
// rule the paper prices: a suspected peer is *never* dropped.  There is no
// failure state; a dead peer just means the link retries forever while the
// hold queue keeps every unacknowledged copy, and redelivers all of them —
// in sequence order — after any reconnect.  Graceful degradation, not loss.
//
// Reliable channels over a fallible wire: every envelope carries a
// per-link sequence number; the receiver acknowledges cumulatively *after*
// the copy reaches the mailbox, and deduplicates replays by the per-peer
// last-delivered sequence (which survives reconnects — TCP/UDS FIFO plus
// in-order full resend makes the delivered set a prefix of the sequence
// space, so "seq <= last" is exactly "already delivered").  Heartbeats
// elicit acks on idle links, so a peer whose process is gone is detected
// by silence (peer_silence) and the link falls back to redialing.
//
// The wire-chaos layer fuzzes all of this from inside: seeded injected
// connection resets, pre-write stalls, byte-at-a-time short writes,
// connect failures, and accept-then-close, all confined to a wall-clock
// window (`until`, the chaos analogue of the router's pre-GST era) and
// switched off by expedite().  The oracle stays the unchanged Validator:
// whatever the chaos does, each group's merged trace must still satisfy
// eventual synchrony from some derived GST round on.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/byzantine_planner.hpp"
#include "net/options.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace indulgence {

/// Where a process listens: a Unix-domain socket path or a TCP port on
/// 127.0.0.1.  `port` 0 asks the kernel for an ephemeral port; the bound
/// address is readable via SocketEndpoint::listen_address().
struct SocketAddress {
  enum class Kind { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;        ///< Unix
  std::uint16_t port = 0;  ///< Tcp (loopback only)

  static SocketAddress unix_path(std::string p) {
    return SocketAddress{Kind::Unix, std::move(p), 0};
  }
  static SocketAddress tcp_loopback(std::uint16_t port) {
    return SocketAddress{Kind::Tcp, {}, port};
  }

  std::string to_string() const;
};

/// Exponential backoff with decorrelated jitter: the next delay is drawn
/// uniformly from [base, 3 * prev], clamped to [base, cap].  Decorrelation
/// (AWS architecture-blog style) avoids the synchronized retry herds plain
/// exponential backoff produces when n links lose the same peer at once.
struct BackoffPolicy {
  std::chrono::microseconds base{500};
  std::chrono::microseconds cap{50'000};
};

/// Pure draw — callers own both the rng and the clock, so tests can walk
/// an entire reconnect schedule synthetically.
std::chrono::microseconds next_backoff(const BackoffPolicy& policy,
                                       std::chrono::microseconds prev,
                                       Rng& rng);

/// Deadline-budgeted blocking write: the WHOLE buffer is charged against
/// one absolute deadline, however many short writes and POLLOUT waits it
/// takes.  This is the chaos dribble path's budget fix — a frame written
/// byte-at-a-time must cost at most one send-timeout, not one per byte.
/// Returns false on error or when the deadline passes first.
bool write_all_until(int fd, const std::uint8_t* data, std::size_t len,
                     std::chrono::steady_clock::time_point deadline);

/// First unflushed position in a link's hold queue.  The queue's seqs are
/// always the contiguous ascending run [front_seq, front_seq + size):
/// dispatch appends next_seq++ and only the cumulative ack pops the front,
/// so the resume point is arithmetic, not a scan — O(1) where the old
/// per-frame std::find_if from begin() made a backlog flush O(n^2).
inline std::size_t flush_resume_index(std::uint64_t front_seq,
                                      std::size_t size,
                                      std::uint64_t sent_up_to) {
  if (size == 0 || sent_up_to < front_seq) return 0;
  const std::uint64_t skip = sent_up_to - front_seq + 1;
  return skip >= size ? size : static_cast<std::size_t>(skip);
}

/// What the supervisor owes a connected link at its poll cycle's single
/// timestamp `now`: nothing, a keep-alive heartbeat (tx idle), or a redial
/// (the peer has been silent past peer_silence — acks included).  Pure so
/// the boundaries are unit-testable without sockets.  The supervisor
/// stamps last_tx with the SAME cycle timestamp its flush used, so a long
/// flush can neither suppress a due heartbeat nor fire a spurious one
/// within a cycle.
enum class KeepaliveAction { None, Heartbeat, Redial };

inline KeepaliveAction keepalive_action(
    std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point last_rx,
    std::chrono::steady_clock::time_point last_tx,
    const struct SocketTransportOptions& options);

/// The per-link reconnect state machine, clock-agnostic: time flows in
/// through the `now` arguments only.
class ReconnectSchedule {
 public:
  ReconnectSchedule(BackoffPolicy policy, std::uint64_t seed)
      : policy_(policy), rng_(Rng::for_stream(seed, 0xb0ff)) {}

  using TimePoint = std::chrono::steady_clock::time_point;

  /// True when a connect attempt is allowed at `now`.
  bool due(TimePoint now) const { return now >= next_attempt_; }

  /// Records a failed attempt at `now`; returns when the next is allowed.
  TimePoint on_failure(TimePoint now) {
    ++failures_;
    delay_ = next_backoff(policy_, delay_, rng_);
    next_attempt_ = now + delay_;
    return next_attempt_;
  }

  /// A successful connect resets the schedule to the base delay.
  void on_success() {
    delay_ = std::chrono::microseconds{0};
    next_attempt_ = TimePoint{};
  }

  /// Expedited shutdown: retry immediately, forever.
  void expedite() { next_attempt_ = TimePoint{}; }

  std::chrono::microseconds current_delay() const { return delay_; }
  long failures() const { return failures_; }

 private:
  BackoffPolicy policy_;
  Rng rng_;
  std::chrono::microseconds delay_{0};
  TimePoint next_attempt_{};
  long failures_ = 0;
};

/// Seeded wire-level fault injection, active only while the run clock is
/// before `until` (and never after expedite()) — the chaos analogue of the
/// router's pre-GST era.  All probabilities are per opportunity.
struct WireChaosOptions {
  std::uint64_t seed = 1;
  std::chrono::microseconds until{0};  ///< chaos window from the run epoch
  double connect_fail_prob = 0.0;  ///< outbound connect aborted before dial
  double accept_close_prob = 0.0;  ///< accepted connection closed instantly
  double reset_prob = 0.0;         ///< connection closed instead of a write
  double stall_prob = 0.0;         ///< sleep `stall` before a write
  std::chrono::microseconds stall{1'000};
  double short_write_prob = 0.0;   ///< dribble a frame byte-at-a-time
  /// >= 0: confine link-side chaos (connect failures, resets, stalls,
  /// short writes) to the link towards this peer node — the counter
  /// attribution tests' scalpel.  Accept-side chaos is unscoped (the
  /// dialer is unknown when the close is injected).
  int only_node = -1;

  bool any() const {
    return connect_fail_prob > 0 || accept_close_prob > 0 || reset_prob > 0 ||
           stall_prob > 0 || short_write_prob > 0;
  }
};

struct SocketTransportOptions {
  std::chrono::microseconds connect_timeout{200'000};
  std::chrono::microseconds send_timeout{200'000};
  /// Idle links send a heartbeat this often; silence for `peer_silence`
  /// (acks included) marks the connection suspect and redials it.
  std::chrono::microseconds heartbeat_every{25'000};
  std::chrono::microseconds peer_silence{150'000};
  /// How long stop_and_flush keeps links alive waiting for final acks, so
  /// copies that were delivered do not linger as pending records.
  std::chrono::microseconds linger{250'000};
  BackoffPolicy backoff;
  WireChaosOptions chaos;
  /// Unacknowledged copies held per link; a full queue back-pressures the
  /// sender (blocks) rather than dropping — ES channels are reliable.
  std::size_t hold_queue_capacity = 1 << 15;
  std::uint64_t seed = 1;
  /// Round-indexed Byzantine actions (sim/byzantine.hpp) applied to the
  /// liars' outgoing copies at dispatch time, before encoding — the socket
  /// analogue of LiveOptions::byzantine (LiveRuntime copies its plan here
  /// when this one is empty).  Mutated and forged copies are encoded
  /// per-receiver; honest traffic keeps the encode-once fast path.
  std::vector<ByzantineInjection> byzantine;
};

inline KeepaliveAction keepalive_action(
    std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point last_rx,
    std::chrono::steady_clock::time_point last_tx,
    const SocketTransportOptions& options) {
  // Silence outranks keep-alive: a heartbeat onto a dead peer only delays
  // the redial that would revive the link.
  if (now - last_rx > options.peer_silence) return KeepaliveAction::Redial;
  if (now - last_tx > options.heartbeat_every) return KeepaliveAction::Heartbeat;
  return KeepaliveAction::None;
}

/// Connection-lifecycle observability, kept per peer link so a reconnect
/// storm on one peer cannot be misattributed to a healthy group that never
/// uses that link.
struct LinkCounters {
  long connect_attempts = 0;
  long connect_failures = 0;   ///< includes injected ones
  long reconnects = 0;         ///< successful connects after the first
  long envelopes_resent = 0;   ///< link-caused redeliveries after reconnect
  long heartbeats_sent = 0;
  long peer_timeouts = 0;      ///< connections dropped for silence
  long injected_resets = 0;
  long injected_stalls = 0;
  long injected_short_writes = 0;
  long injected_connect_failures = 0;
  /// Envelope-flush syscalls (writev-style batches plus their stall
  /// retries).  Frames per syscall = (group sends + resends) / this.
  long flush_syscalls = 0;

  LinkCounters& operator+=(const LinkCounters& o);
};

/// Traffic observability, kept per consensus group: what the demux layer
/// attributed to each group's replicas.
struct GroupCounters {
  long envelopes_sent = 0;
  long envelopes_delivered = 0;
  long duplicates_dropped = 0;

  GroupCounters& operator+=(const GroupCounters& o);
};

/// The endpoint-wide aggregate (links + groups + accept-side events); the
/// X5/X6 benches and the multi-process demos report these, and the shipped
/// log format persists them.
struct SocketCounters {
  long connect_attempts = 0;
  long connect_failures = 0;   ///< includes injected ones
  long reconnects = 0;         ///< successful connects after the first
  long envelopes_sent = 0;
  long envelopes_resent = 0;   ///< redeliveries after reconnect
  long envelopes_delivered = 0;
  long duplicates_dropped = 0;
  long heartbeats_sent = 0;
  long peer_timeouts = 0;      ///< connections dropped for silence
  long injected_resets = 0;
  long injected_stalls = 0;
  long injected_short_writes = 0;
  long injected_connect_failures = 0;
  long injected_accept_closes = 0;
  /// Well-formed envelopes no hosted group owned (unknown group, spoofed
  /// or misplaced sender).  Acked at the link layer, dropped by the demux.
  long demux_drops = 0;
  /// Envelope-flush syscalls across all links; the coalesced flush ships
  /// many frames per syscall, so (sent + resent) / flush_syscalls is the
  /// batching factor the E10 transport microbench tracks.
  long flush_syscalls = 0;

  SocketCounters& operator+=(const SocketCounters& o);
};

/// Resolves a peer's address at connect time.  Multi-process TCP runs use
/// this to read port files that only exist once the peer has bound;
/// returning nullopt counts as a failed attempt (backoff applies).
using AddressResolver =
    std::function<std::optional<SocketAddress>(ProcessId)>;

/// One consensus group as hosted on one node: which group-local replica
/// lives here, where every other member lives, and the channel decoded
/// envelopes are demultiplexed into.
struct GroupSpec {
  GroupId group = 0;
  SystemConfig config{};
  ProcessId self = -1;       ///< the group-local replica hosted on this node
  /// members[pid] = hosting node for every group-local pid.  Replicas of
  /// one group must live on pairwise-distinct nodes.
  std::vector<int> members;
  Mailbox* inbox = nullptr;  ///< the hosted replica's mailbox
};

/// One node's side of the socket fabric: a listener plus one supervised
/// outbound link per peer node, multiplexing every group registered with
/// add_group().  Round drivers reach it through a per-group GroupPort.
class SocketEndpoint final {
 public:
  using Clock = std::chrono::steady_clock;

  /// `node` is this process' slot in the fabric's node address table;
  /// `nodes[node]` may carry port 0 — the bound address is
  /// listen_address().  Binds the listener here, before any start(), so a
  /// set of endpoints created first and started later always reach each
  /// other.  Register hosted groups with add_group() before start().
  SocketEndpoint(int node, std::vector<SocketAddress> nodes,
                 SocketTransportOptions options);

  /// Resolver flavour (multi-process fabrics): only the own listen address
  /// is known up front; peers are resolved per connect attempt.
  SocketEndpoint(int node, int num_nodes, SocketAddress listen,
                 AddressResolver resolver, SocketTransportOptions options);

  ~SocketEndpoint();

  /// Registers a hosted group (before start() only).  Throws
  /// std::invalid_argument on malformed placement: wrong member count,
  /// nodes out of range, spec.self not hosted here, a duplicate GroupId,
  /// or two replicas of the group sharing a node.
  void add_group(GroupSpec spec);

  /// The address the listener actually bound (TCP port resolved).
  const SocketAddress& listen_address() const { return listen_address_; }

  int node() const { return node_; }

  // --- lifecycle ------------------------------------------------------------

  /// Starts the acceptor and the link supervisors; `epoch` is the run's
  /// t=0 for the wire-chaos window.
  void start(Clock::time_point epoch);
  /// Shutdown-drain accelerator: chaos off, links redial and flush at once.
  void expedite();
  /// Stops every thread after a linger for final acks, and returns the
  /// copies no peer acknowledged (each tagged with its group).  The caller
  /// must have joined every hosted group's drivers first.  Idempotent.
  std::vector<UndeliveredCopy> stop_and_flush();

  // --- demux layer (per-group entry points) ---------------------------------

  /// Broadcasts `payload` as group-local `sender`'s round-`round` message
  /// to the group's other members, over the shared per-node links.
  /// Thread-safe.  `sender` must be the replica hosted on this node.
  void dispatch_group(GroupId group, ProcessId sender, Round round,
                      MessagePtr payload);

  /// Marks group-local `pid` dead *within one group*: if that replica is
  /// hosted here, its copies are dropped at delivery (the kernel does the
  /// same, and the validator never asks for deliveries to the dead).
  void mark_dead_group(GroupId group, ProcessId pid);

  /// Per-group expedite: the endpoint-wide expedite (chaos off, drain
  /// fast) fires once the *last* hosted group asks — one early-finishing
  /// group cannot switch the adversary off for the others.
  void expedite_group(GroupId group);

  // --- observability --------------------------------------------------------

  SocketCounters counters() const;  ///< endpoint-wide aggregate
  LinkCounters link_counters(int node) const;
  GroupCounters group_counters(GroupId group) const;
  /// The frame-buffer pool recycling encoded envelopes across flushes
  /// (observability: the E10 microbench and the pool tests read its
  /// reuse/miss stats).
  const FrameBufferPool& frame_pool() const { return pool_; }

 private:
  struct Link;
  struct Inbound;
  struct GroupState;

  void init_listener_and_links();
  GroupState* find_group(GroupId group) const;
  Link* link_for_node(int node) const;
  void accept_loop();
  void reader_loop(Inbound* conn);
  void supervisor_loop(Link* link);
  bool connect_link(Link* link, Clock::time_point now);
  bool flush_link(Link* link, Clock::time_point now);
  bool flush_link_batched(Link* link, Clock::time_point now);
  bool flush_link_chaos(Link* link, Clock::time_point now);
  bool pump_acks(Link* link);
  void drop_connection(Link* link);
  bool chaos_active(Clock::time_point now) const;
  bool chaos_scoped(const Link* link) const;
  void close_all_inbound();

  int node_ = -1;
  int num_nodes_ = 0;
  SocketTransportOptions options_;
  /// Byzantine output mutation (net/byzantine_planner.hpp); the mutex
  /// serializes its replay history across concurrently dispatching hosted
  /// groups and is only ever taken when the plan is non-empty.
  ByzantinePlanner byz_;
  std::mutex byz_mutex_;
  AddressResolver resolver_;
  SocketAddress listen_address_;
  int listen_fd_ = -1;

  /// Immutable after start(): reader threads demux without locks.
  std::map<GroupId, std::unique_ptr<GroupState>> groups_;
  std::vector<GroupId> hosted_group_ids_;  ///< ascending, = HELLO2 payload

  Clock::time_point epoch_{};
  /// Written (before the `stopping_` release-store) by stop_and_flush;
  /// supervisors read it only after an acquire-load of `stopping_`.
  Clock::time_point halt_deadline_{};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> expedited_{false};
  bool flushed_ = false;

  std::mutex expedite_mutex_;
  int expedited_groups_ = 0;

  std::vector<std::unique_ptr<Link>> links_;  ///< one per peer node
  std::vector<int> link_index_;  ///< node -> index in links_, -1 for self

  std::thread accept_thread_;
  std::mutex inbound_mutex_;
  std::vector<std::unique_ptr<Inbound>> inbound_;

  /// Highest sequence delivered per peer node; survives reconnects
  /// (dedup).  Per link, shared by every group riding on it.
  std::mutex delivered_mutex_;
  std::vector<std::uint64_t> delivered_seq_;

  mutable std::mutex counters_mutex_;
  /// Accept-side injections + demux drops — events with no owning link or
  /// group.  Link/group fields of this struct stay zero; counters() adds
  /// the per-link and per-group tallies on top.
  SocketCounters misc_;

  /// Copies that could not even be queued because stop arrived while the
  /// hold queue was full.
  std::mutex overflow_mutex_;
  std::vector<UndeliveredCopy> overflow_;

  /// Recycles encoded-frame buffers: dispatch acquires, the cumulative-ack
  /// pop releases.  Endpoint-wide so every link shares the warm set.
  FrameBufferPool pool_;
};

/// A per-group SupervisedTransport view over a shared multi-group
/// endpoint: the demux layer's send-side facade.  The round drivers of
/// group g hold a GroupPort and never learn the endpoint is shared —
/// DriverContext, RoundDriver, and the validator stay single-group.  The
/// endpoint's owner starts and stops it, once for all its groups.
class GroupPort final : public SupervisedTransport {
 public:
  GroupPort(SocketEndpoint* endpoint, GroupId group)
      : endpoint_(endpoint), group_(group) {}

  void dispatch(ProcessId sender, Round round, MessagePtr payload) override {
    endpoint_->dispatch_group(group_, sender, round, std::move(payload));
  }
  void mark_dead(ProcessId pid) override {
    endpoint_->mark_dead_group(group_, pid);
  }
  void expedite() override { endpoint_->expedite_group(group_); }

 private:
  SocketEndpoint* endpoint_;
  GroupId group_;
};

/// M node endpoints wired over real sockets inside one process: the fabric
/// run_sharded drives G groups over, and LiveRuntime's socket transport
/// (one group, M = n nodes, identity placement).  Every listener binds in
/// the constructor, so the endpoints reach each other as soon as they
/// start.  Unix-domain endpoints live under a fresh temp directory that
/// goes with the fabric, also when the run throws; TCP endpoints bind
/// ephemeral loopback ports.  Node i's endpoint runs with seed
/// options.seed + 1337 i.
class SocketFabric {
 public:
  SocketFabric(int num_nodes, SocketAddress::Kind kind,
               const SocketTransportOptions& options);
  SocketFabric(const SocketFabric&) = delete;  // endpoints resolve via this
  SocketFabric& operator=(const SocketFabric&) = delete;
  /// Stops every endpoint before destroying any: a running supervisor
  /// resolves its peers' addresses through the fabric.
  ~SocketFabric() { stop(); }

  /// Registers group-local replica `pid` of `group` on node members[pid]
  /// (before start()) and returns the port its driver sends through.
  GroupPort& host(GroupId group, const SystemConfig& config, ProcessId pid,
                  const std::vector<int>& members, Mailbox* inbox);

  void start(std::chrono::steady_clock::time_point epoch);

  /// Stops every endpoint concurrently, so their linger windows overlap:
  /// every node keeps acking while the others drain, instead of node 0
  /// going deaf while node 1 still flushes to it.  Returns the copies no
  /// peer acknowledged, each tagged with its group.  Later calls return
  /// nothing.
  std::vector<UndeliveredCopy> stop();

  SocketCounters counters() const;  ///< summed over every endpoint
  GroupCounters group_counters(GroupId group) const;

 private:
  /// The UDS socket directory (empty path for TCP), removed on destruction.
  /// Declared before the endpoints, so it goes after they unlink their
  /// sockets.
  struct Directory {
    std::string path;
    Directory() = default;
    Directory(const Directory&) = delete;
    Directory& operator=(const Directory&) = delete;
    ~Directory();
  };

  Directory dir_;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints_;
  std::vector<std::unique_ptr<GroupPort>> ports_;
  bool stopped_ = false;
};

}  // namespace indulgence
