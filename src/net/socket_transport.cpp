#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace indulgence {

namespace {

using Clock = std::chrono::steady_clock;

/// poll() one fd for `events`, tolerating EINTR.  Returns revents, 0 on
/// timeout, -1 on error.
int poll_one(int fd, short events, std::chrono::microseconds timeout) {
  pollfd p{fd, events, 0};
  const int ms = static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(timeout).count());
  for (;;) {
    const int r = ::poll(&p, 1, std::max(ms, 0));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return r;
    return p.revents;
  }
}

/// Writes the whole buffer, polling for writability up to `timeout` per
/// stall.  Returns false on error or timeout (connection considered dead).
bool write_all(int fd, const std::uint8_t* data, std::size_t len,
               std::chrono::microseconds timeout) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int ev = poll_one(fd, POLLOUT, timeout);
      if (ev <= 0 || (ev & (POLLERR | POLLHUP))) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// How many frames one coalesced flush gathers per syscall.  Well under
/// IOV_MAX everywhere, and small enough that one batch cannot hog the
/// link mutex while it is gathered.
constexpr std::size_t kFlushBatchFrames = 256;

/// Gathered-write counterpart of write_all: ships `count` iovecs with as
/// few syscalls as the kernel allows, polling POLLOUT up to `timeout` per
/// stall.  Uses sendmsg (writev semantics) so MSG_NOSIGNAL still applies.
/// `syscalls` counts every send attempt; `written` reports bytes shipped
/// even when the connection breaks mid-batch, so the caller can tell which
/// complete frames made it out.
bool writev_all(int fd, iovec* iov, std::size_t count,
                std::chrono::microseconds timeout, long& syscalls,
                std::size_t& written) {
  std::size_t idx = 0;
  while (idx < count) {
    msghdr msg{};
    msg.msg_iov = iov + idx;
    // UIO_MAXIOV guard; our batches stay below it, but keep this helper safe.
    msg.msg_iovlen = std::min<std::size_t>(count - idx, 1024);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    ++syscalls;
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (idx < count && left >= iov[idx].iov_len) {
        left -= iov[idx].iov_len;
        ++idx;
      }
      if (idx < count && left > 0) {
        iov[idx].iov_base = static_cast<std::uint8_t*>(iov[idx].iov_base) + left;
        iov[idx].iov_len -= left;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int ev = poll_one(fd, POLLOUT, timeout);
      if (ev <= 0 || (ev & (POLLERR | POLLHUP))) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void configure_stream(int fd, SocketAddress::Kind kind) {
  set_cloexec(fd);
  set_nonblocking(fd);
  if (kind == SocketAddress::Kind::Tcp) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

bool fill_sockaddr(const SocketAddress& addr, sockaddr_storage& storage,
                   socklen_t& len) {
  std::memset(&storage, 0, sizeof(storage));
  if (addr.kind == SocketAddress::Kind::Unix) {
    auto* un = reinterpret_cast<sockaddr_un*>(&storage);
    if (addr.path.size() + 1 > sizeof(un->sun_path)) return false;
    un->sun_family = AF_UNIX;
    std::memcpy(un->sun_path, addr.path.c_str(), addr.path.size() + 1);
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                 addr.path.size() + 1);
  } else {
    auto* in = reinterpret_cast<sockaddr_in*>(&storage);
    in->sin_family = AF_INET;
    in->sin_port = htons(addr.port);
    in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    len = sizeof(sockaddr_in);
  }
  return true;
}

int open_listener(SocketAddress& addr) {
  const int domain =
      addr.kind == SocketAddress::Kind::Unix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket transport: socket(): ") +
                             std::strerror(errno));
  }
  set_cloexec(fd);
  if (addr.kind == SocketAddress::Kind::Unix) {
    ::unlink(addr.path.c_str());  // stale socket file from a previous run
  } else {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_storage storage;
  socklen_t len = 0;
  if (!fill_sockaddr(addr, storage, len)) {
    ::close(fd);
    throw std::runtime_error("socket transport: listen path too long: " +
                             addr.path);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("socket transport: bind/listen " +
                             addr.to_string() + ": " + what);
  }
  if (addr.kind == SocketAddress::Kind::Tcp && addr.port == 0) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
    addr.port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

std::string SocketAddress::to_string() const {
  return kind == Kind::Unix ? "unix:" + path
                            : "tcp:127.0.0.1:" + std::to_string(port);
}

std::chrono::microseconds next_backoff(const BackoffPolicy& policy,
                                       std::chrono::microseconds prev,
                                       Rng& rng) {
  const std::int64_t base = policy.base.count();
  const std::int64_t cap = policy.cap.count();
  // Decorrelated jitter: uniform in [base, 3 * prev], clamped to the cap;
  // from a cold start (prev == 0) the first delay is exactly `base`.
  const std::int64_t hi = std::max(base, std::min(cap, 3 * prev.count()));
  const std::uint64_t span = static_cast<std::uint64_t>(hi - base) + 1;
  const std::int64_t draw =
      base + static_cast<std::int64_t>(rng.next_below(span));
  return std::chrono::microseconds{std::min(draw, cap)};
}

bool write_all_until(int fd, const std::uint8_t* data, std::size_t len,
                     std::chrono::steady_clock::time_point deadline) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto now = Clock::now();
      if (now >= deadline) return false;
      const auto remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
      const int ev = poll_one(fd, POLLOUT, remaining);
      if (ev < 0 || (ev & (POLLERR | POLLHUP))) return false;
      continue;  // ev == 0 re-checks the deadline above
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

LinkCounters& LinkCounters::operator+=(const LinkCounters& o) {
  connect_attempts += o.connect_attempts;
  connect_failures += o.connect_failures;
  reconnects += o.reconnects;
  envelopes_resent += o.envelopes_resent;
  heartbeats_sent += o.heartbeats_sent;
  peer_timeouts += o.peer_timeouts;
  injected_resets += o.injected_resets;
  injected_stalls += o.injected_stalls;
  injected_short_writes += o.injected_short_writes;
  injected_connect_failures += o.injected_connect_failures;
  flush_syscalls += o.flush_syscalls;
  return *this;
}

GroupCounters& GroupCounters::operator+=(const GroupCounters& o) {
  envelopes_sent += o.envelopes_sent;
  envelopes_delivered += o.envelopes_delivered;
  duplicates_dropped += o.duplicates_dropped;
  return *this;
}

SocketCounters& SocketCounters::operator+=(const SocketCounters& o) {
  connect_attempts += o.connect_attempts;
  connect_failures += o.connect_failures;
  reconnects += o.reconnects;
  envelopes_sent += o.envelopes_sent;
  envelopes_resent += o.envelopes_resent;
  envelopes_delivered += o.envelopes_delivered;
  duplicates_dropped += o.duplicates_dropped;
  heartbeats_sent += o.heartbeats_sent;
  peer_timeouts += o.peer_timeouts;
  injected_resets += o.injected_resets;
  injected_stalls += o.injected_stalls;
  injected_short_writes += o.injected_short_writes;
  injected_connect_failures += o.injected_connect_failures;
  injected_accept_closes += o.injected_accept_closes;
  demux_drops += o.demux_drops;
  flush_syscalls += o.flush_syscalls;
  return *this;
}

// ---------------------------------------------------------------------------
// SocketEndpoint internals

/// One queued-but-unacknowledged copy on a link: the group and group-local
/// endpoints identify the owning replica pair, the seq lives in the link's
/// shared sequence space.  The copy is held as its ENCODED wire frame —
/// dispatch encodes once into a pooled buffer and stamps the seq, so a
/// flush (and every resend after a reconnect) is a gather over these bytes
/// with no re-encoding and no per-frame allocation.  `frame` is immutable
/// from push until the ack pop releases it back to the pool, which is what
/// lets the flush hand iovec views of it to the kernel outside the lock.
struct HoldItem {
  std::uint64_t seq = 0;
  GroupId group = 0;
  ProcessId sender = -1;    ///< group-local
  ProcessId receiver = -1;  ///< group-local
  Round send_round = 0;
  std::vector<std::uint8_t> frame;  ///< encoded ENVELOPE2, seq stamped
  bool ever_sent = false;
};

/// One outbound peer-node link, owned by its supervisor thread except
/// where noted.  `mutex` guards the hold queue and `next_seq`; `counters`
/// is guarded by the endpoint's counters_mutex_; everything else is
/// supervisor-thread-only.
struct SocketEndpoint::Link {
  Link(int peer, const SocketTransportOptions& options,
       std::uint64_t chaos_stream)
      : peer(peer),
        schedule(options.backoff, options.seed ^ (0x5eedUL + chaos_stream)),
        chaos_rng(Rng::for_stream(options.chaos.seed, chaos_stream)) {}

  int peer;  ///< peer node id
  std::thread thread;

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<HoldItem> hold;
  std::uint64_t next_seq = 1;

  LinkCounters counters;  ///< guarded by the endpoint's counters_mutex_

  // Supervisor-thread-only state.
  int fd = -1;
  std::uint64_t acked = 0;        ///< cumulative ack from the peer
  std::uint64_t sent_up_to = 0;   ///< highest seq written on the current fd
  bool connected_once = false;
  ReconnectSchedule schedule;
  Rng chaos_rng;
  FrameParser ack_parser;
  Clock::time_point last_rx{};
  Clock::time_point last_tx{};
  /// Reused gather scratch for the coalesced flush (supervisor-only).
  std::vector<iovec> iov_scratch;
  std::vector<HoldItem*> batch_scratch;
};

/// One accepted inbound connection and its reader thread.
struct SocketEndpoint::Inbound {
  int fd = -1;
  std::thread thread;
};

/// One hosted consensus group: its spec (immutable after add_group), the
/// demux-side liveness flag, and per-group counters.
struct SocketEndpoint::GroupState {
  GroupSpec spec;
  std::atomic<bool> dead{false};
  bool expedited = false;  ///< guarded by expedite_mutex_
  GroupCounters counters;  ///< guarded by counters_mutex_
};

SocketEndpoint::SocketEndpoint(int node, std::vector<SocketAddress> nodes,
                               SocketTransportOptions options)
    : node_(node),
      num_nodes_(static_cast<int>(nodes.size())),
      options_(std::move(options)),
      listen_address_(nodes.at(static_cast<std::size_t>(node))),
      delivered_seq_(nodes.size(), 0) {
  auto table =
      std::make_shared<std::vector<SocketAddress>>(std::move(nodes));
  resolver_ = [table](ProcessId pid) -> std::optional<SocketAddress> {
    return table->at(static_cast<std::size_t>(pid));
  };
  init_listener_and_links();
}

SocketEndpoint::SocketEndpoint(int node, int num_nodes, SocketAddress listen,
                               AddressResolver resolver,
                               SocketTransportOptions options)
    : node_(node),
      num_nodes_(num_nodes),
      options_(std::move(options)),
      resolver_(std::move(resolver)),
      listen_address_(std::move(listen)),
      delivered_seq_(static_cast<std::size_t>(num_nodes), 0) {
  init_listener_and_links();
}

void SocketEndpoint::init_listener_and_links() {
  if (node_ < 0 || node_ >= num_nodes_ || num_nodes_ < 2) {
    throw std::invalid_argument("socket endpoint: bad node id / node count");
  }
  byz_ = ByzantinePlanner(options_.byzantine);
  listen_fd_ = open_listener(listen_address_);
  link_index_.assign(static_cast<std::size_t>(num_nodes_), -1);
  links_.reserve(static_cast<std::size_t>(num_nodes_) - 1);
  for (int peer = 0; peer < num_nodes_; ++peer) {
    if (peer == node_) continue;
    link_index_[static_cast<std::size_t>(peer)] =
        static_cast<int>(links_.size());
    links_.push_back(std::make_unique<Link>(
        peer, options_,
        (static_cast<std::uint64_t>(node_) << 8) |
            static_cast<std::uint64_t>(peer)));
  }
}

void SocketEndpoint::add_group(GroupSpec spec) {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("socket endpoint: add_group after start");
  }
  spec.config.validate();
  if (spec.inbox == nullptr) {
    throw std::invalid_argument("socket endpoint: group needs an inbox");
  }
  if (static_cast<int>(spec.members.size()) != spec.config.n) {
    throw std::invalid_argument(
        "socket endpoint: group placement needs one node per member");
  }
  if (spec.self < 0 || spec.self >= spec.config.n ||
      spec.members[static_cast<std::size_t>(spec.self)] != node_) {
    throw std::invalid_argument(
        "socket endpoint: spec.self must be the replica hosted on this node");
  }
  std::vector<char> used(static_cast<std::size_t>(num_nodes_), 0);
  for (int member_node : spec.members) {
    if (member_node < 0 || member_node >= num_nodes_) {
      throw std::invalid_argument("socket endpoint: member node out of range");
    }
    if (used[static_cast<std::size_t>(member_node)]) {
      throw std::invalid_argument(
          "socket endpoint: replicas of one group must live on distinct "
          "nodes");
    }
    used[static_cast<std::size_t>(member_node)] = 1;
  }
  if (groups_.count(spec.group) != 0) {
    throw std::invalid_argument("socket endpoint: duplicate group " +
                                std::to_string(spec.group));
  }
  const GroupId id = spec.group;
  auto state = std::make_unique<GroupState>();
  state->spec = std::move(spec);
  groups_.emplace(id, std::move(state));
  hosted_group_ids_.clear();
  for (const auto& [group, unused] : groups_) hosted_group_ids_.push_back(group);
}

SocketEndpoint::GroupState* SocketEndpoint::find_group(GroupId group) const {
  const auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : it->second.get();
}

SocketEndpoint::Link* SocketEndpoint::link_for_node(int node) const {
  if (node < 0 || node >= num_nodes_) return nullptr;
  const int index = link_index_[static_cast<std::size_t>(node)];
  return index < 0 ? nullptr : links_[static_cast<std::size_t>(index)].get();
}

SocketEndpoint::~SocketEndpoint() {
  stop_and_flush();
  if (listen_address_.kind == SocketAddress::Kind::Unix) {
    ::unlink(listen_address_.path.c_str());
  }
}

bool SocketEndpoint::chaos_active(Clock::time_point now) const {
  return options_.chaos.any() &&
         !expedited_.load(std::memory_order_acquire) &&
         now - epoch_ < options_.chaos.until;
}

bool SocketEndpoint::chaos_scoped(const Link* link) const {
  return options_.chaos.only_node < 0 ||
         link->peer == options_.chaos.only_node;
}

void SocketEndpoint::start(Clock::time_point epoch) {
  // An endpoint with no hosted groups is legal: a fabric node whose slice
  // of the placement is currently empty still listens (peers may connect;
  // anything they send routes nowhere and counts as demux_drops).
  epoch_ = epoch;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (auto& link : links_) {
    Link* raw = link.get();
    raw->thread = std::thread([this, raw] { supervisor_loop(raw); });
  }
}

void SocketEndpoint::dispatch_group(GroupId group, ProcessId sender,
                                    Round round, MessagePtr payload) {
  GroupState* state = find_group(group);
  if (state == nullptr) {
    throw std::logic_error("socket endpoint: dispatch for unhosted group " +
                           std::to_string(group));
  }
  if (sender != state->spec.self) {
    throw std::logic_error("socket endpoint: dispatch for foreign sender p" +
                           std::to_string(sender));
  }
  // Queues one already-encoded copy onto the receiver's link, stamping its
  // per-link sequence in place.
  auto push_frame = [&](ProcessId claimed, ProcessId receiver,
                        std::vector<std::uint8_t> frame) {
    Link* link =
        link_for_node(state->spec.members[static_cast<std::size_t>(receiver)]);
    std::unique_lock<std::mutex> lock(link->mutex);
    link->cv.wait(lock, [&] {
      return link->hold.size() < options_.hold_queue_capacity ||
             stopping_.load(std::memory_order_acquire);
    });
    if (link->hold.size() >= options_.hold_queue_capacity) {
      // Stop raced a full queue; the copy never even entered the fabric.
      lock.unlock();
      pool_.release(std::move(frame));
      std::lock_guard<std::mutex> overflow_lock(overflow_mutex_);
      overflow_.push_back(UndeliveredCopy{claimed, receiver, round, 0, group});
      return;
    }
    const std::uint64_t seq = link->next_seq++;
    patch_envelope_seq(frame, seq);
    link->hold.push_back(HoldItem{seq, group, claimed, receiver, round,
                                  std::move(frame), false});
    lock.unlock();
    link->cv.notify_all();
  };

  if (byz_.active()) {
    // Byzantine dispatch: copies may differ per receiver (mutations,
    // forgeries, silence), so each one is encoded individually.  The lock
    // serializes the planner's replay history across hosted groups.
    std::lock_guard<std::mutex> byz_lock(byz_mutex_);
    byz_.note_send(sender, round, payload);
    for (ProcessId receiver = 0; receiver < state->spec.config.n;
         ++receiver) {
      if (receiver == sender) continue;
      for (ByzantinePlanner::Copy& copy :
           byz_.copies_for(sender, round, receiver, payload)) {
        NetEnvelope env;
        env.group = group;
        env.sender = copy.sender;
        env.send_round = round;
        env.target_round = 0;
        env.origin = copy.origin;
        env.payload = std::move(copy.payload);
        WireWriter encoded(pool_.acquire());
        encode_envelope_frame2_into(0, env, encoded);
        push_frame(copy.sender, receiver, encoded.take());
      }
    }
    return;
  }

  // Encode the envelope ONCE per dispatch (the wire bytes do not mention
  // the receiver): every per-link copy is a memcpy of these bytes into a
  // pooled buffer with its own seq stamped in place — no re-encode per
  // receiver and, once the pool is warm, no allocation on this path.
  NetEnvelope env;
  env.group = group;
  env.sender = sender;
  env.send_round = round;
  env.target_round = 0;
  env.payload = std::move(payload);
  WireWriter encoded(pool_.acquire());
  encode_envelope_frame2_into(0, env, encoded);
  for (ProcessId receiver = 0; receiver < state->spec.config.n; ++receiver) {
    if (receiver == sender) continue;
    std::vector<std::uint8_t> frame = pool_.acquire();
    frame.assign(encoded.bytes().begin(), encoded.bytes().end());
    push_frame(sender, receiver, std::move(frame));
  }
  pool_.release(encoded.take());
}

void SocketEndpoint::mark_dead_group(GroupId group, ProcessId pid) {
  GroupState* state = find_group(group);
  if (state != nullptr && state->spec.self == pid) {
    state->dead.store(true, std::memory_order_release);
  }
}

void SocketEndpoint::expedite() {
  expedited_.store(true, std::memory_order_release);
  for (auto& link : links_) link->cv.notify_all();
}

void SocketEndpoint::expedite_group(GroupId group) {
  {
    std::lock_guard<std::mutex> lock(expedite_mutex_);
    GroupState* state = find_group(group);
    if (state == nullptr || state->expedited) return;
    state->expedited = true;
    if (++expedited_groups_ < static_cast<int>(groups_.size())) return;
  }
  expedite();
}

bool SocketEndpoint::connect_link(Link* link, Clock::time_point now) {
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++link->counters.connect_attempts;
  }
  auto fail = [&](bool injected) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++link->counters.connect_failures;
    if (injected) ++link->counters.injected_connect_failures;
    return false;
  };
  if (chaos_active(now) && chaos_scoped(link) &&
      link->chaos_rng.next_double() < options_.chaos.connect_fail_prob) {
    return fail(true);
  }
  const std::optional<SocketAddress> addr = resolver_(link->peer);
  if (!addr) return fail(false);

  const int domain =
      addr->kind == SocketAddress::Kind::Unix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) return fail(false);
  configure_stream(fd, addr->kind);
  sockaddr_storage storage;
  socklen_t len = 0;
  if (!fill_sockaddr(*addr, storage, len)) {
    ::close(fd);
    return fail(false);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return fail(false);
    }
    const int ev = poll_one(fd, POLLOUT, options_.connect_timeout);
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (ev <= 0 || (ev & (POLLERR | POLLHUP)) ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      ::close(fd);
      return fail(false);
    }
  }
  const std::vector<std::uint8_t> hello =
      encode_hello2(node_, hosted_group_ids_);
  if (!write_all(fd, hello.data(), hello.size(), options_.send_timeout)) {
    ::close(fd);
    return fail(false);
  }
  link->fd = fd;
  link->sent_up_to = link->acked;  // redeliver every unacknowledged copy
  link->ack_parser = FrameParser{};
  link->last_rx = now;
  link->last_tx = now;
  link->schedule.on_success();
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    if (link->connected_once) ++link->counters.reconnects;
  }
  link->connected_once = true;
  return true;
}

void SocketEndpoint::drop_connection(Link* link) {
  if (link->fd >= 0) {
    ::close(link->fd);
    link->fd = -1;
  }
}

/// Sends everything queued beyond sent_up_to.  Returns false when the
/// connection broke (caller redials).
///
/// Two paths share the hold queue's invariants.  Chaos inactive (the
/// steady state): the coalesced path gathers every pending frame into an
/// iovec batch and ships it with one writev-style syscall.  Chaos active
/// and scoped to this link: the per-frame path keeps the original
/// frame-boundary injection points and, crucially, the original RNG draw
/// order (reset -> stall -> short-write per frame), so seeded chaos runs
/// replay identically to the pre-batching transport.  The split cannot
/// flip mid-call: with `now` fixed, chaos_active() only changes through
/// expedited_, which moves one way (off).
bool SocketEndpoint::flush_link(Link* link, Clock::time_point now) {
  if (chaos_active(now) && chaos_scoped(link)) {
    return flush_link_chaos(link, now);
  }
  return flush_link_batched(link, now);
}

/// The coalesced steady-state flush.  Gathers pointers under the lock,
/// writes without it: deque elements are reference-stable under the
/// dispatchers' push_back, and the supervisor (this thread) is the only
/// popper, so the iovec views over hold-queue bytes stay valid for the
/// whole write.
///
/// At most ONE batch per call: a deep backlog must not monopolize the
/// supervisor, or the acks piling up on the reverse path never get pumped,
/// last_rx goes stale, and the keepalive redials a healthy link mid-flush
/// (resending everything).  The supervisor's work_pending check skips the
/// idle wait while frames remain, so the next batch follows immediately —
/// after acks and the keep-alive decision get their turn.
bool SocketEndpoint::flush_link_batched(Link* link, Clock::time_point now) {
  auto& iov = link->iov_scratch;
  auto& batch = link->batch_scratch;
  iov.clear();
  batch.clear();
  {
    std::lock_guard<std::mutex> lock(link->mutex);
    const std::size_t start =
        link->hold.empty()
            ? 0
            : flush_resume_index(link->hold.front().seq, link->hold.size(),
                                 link->sent_up_to);
    for (std::size_t i = start;
         i < link->hold.size() && batch.size() < kFlushBatchFrames; ++i) {
      HoldItem& item = link->hold[i];
      iov.push_back(iovec{
          const_cast<std::uint8_t*>(item.frame.data()), item.frame.size()});
      batch.push_back(&item);
    }
  }
  if (batch.empty()) return true;

  long syscalls = 0;
  std::size_t written = 0;
  const bool ok = writev_all(link->fd, iov.data(), iov.size(),
                             options_.send_timeout, syscalls, written);

  // Only COMPLETELY shipped frames count as transmitted: a frame cut by
  // a broken batch is redelivered (and recounted) after the reconnect.
  std::size_t complete = 0;
  std::size_t bytes = 0;
  while (complete < batch.size() &&
         bytes + batch[complete]->frame.size() <= written) {
    bytes += batch[complete]->frame.size();
    ++complete;
  }
  if (complete > 0) {
    // One consistent timestamp per poll cycle: the heartbeat check in
    // the supervisor compares against the same `now`, so a long flush
    // cannot skew the keep-alive decision within its own cycle.
    link->last_tx = now;
    link->sent_up_to = batch[complete - 1]->seq;
    {
      // ever_sent flips only on a COMPLETED write: a frame whose first
      // attempt died with the connection was never transmitted, so its
      // eventual write is the group's first send, not a link
      // redelivery.  Resends — the frame really left on an earlier
      // connection — are a link event.
      std::lock_guard<std::mutex> lock(counters_mutex_);
      link->counters.flush_syscalls += syscalls;
      for (std::size_t i = 0; i < complete; ++i) {
        if (batch[i]->ever_sent) {
          ++link->counters.envelopes_resent;
        } else {
          ++find_group(batch[i]->group)->counters.envelopes_sent;
        }
      }
    }
    // The supervisor is the only reader/writer of ever_sent while the
    // items are queued (stop_and_flush reads only after joining us).
    for (std::size_t i = 0; i < complete; ++i) batch[i]->ever_sent = true;
  } else {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    link->counters.flush_syscalls += syscalls;
  }
  if (!ok) {
    drop_connection(link);
    return false;
  }
  return true;
}

/// The per-frame chaos flush: every frame is its own injection opportunity
/// (reset -> stall -> short-write, in that draw order — seeded runs replay
/// byte-for-byte against the original transport).  Capped at one batch's
/// worth of frames per call for the same reason the batched flush is:
/// acks and the keep-alive decision must interleave with a deep backlog.
bool SocketEndpoint::flush_link_chaos(Link* link, Clock::time_point now) {
  for (std::size_t flushed = 0; flushed < kFlushBatchFrames; ++flushed) {
    HoldItem* item = nullptr;
    {
      std::lock_guard<std::mutex> lock(link->mutex);
      const std::size_t index =
          link->hold.empty()
              ? 0
              : flush_resume_index(link->hold.front().seq, link->hold.size(),
                                   link->sent_up_to);
      if (index >= link->hold.size()) return true;
      // Safe outside the lock: see flush_link_batched on reference
      // stability and single-popper discipline.
      item = &link->hold[index];
    }

    bool short_write = false;
    if (chaos_active(now) && chaos_scoped(link)) {
      const WireChaosOptions& chaos = options_.chaos;
      if (link->chaos_rng.next_double() < chaos.reset_prob) {
        {
          std::lock_guard<std::mutex> lock(counters_mutex_);
          ++link->counters.injected_resets;
        }
        drop_connection(link);
        return false;
      }
      if (link->chaos_rng.next_double() < chaos.stall_prob) {
        {
          std::lock_guard<std::mutex> lock(counters_mutex_);
          ++link->counters.injected_stalls;
        }
        std::this_thread::sleep_for(chaos.stall);
      }
      short_write = link->chaos_rng.next_double() < chaos.short_write_prob;
    }

    const std::vector<std::uint8_t>& frame = item->frame;
    long syscalls = 0;
    bool ok = true;
    if (short_write) {
      {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++link->counters.injected_short_writes;
      }
      // Dribble the frame byte by byte: the peer's FrameParser must
      // reassemble it from n reads of 1 byte.  The WHOLE frame is charged
      // against one send-timeout deadline — dribbling slows a frame down,
      // it must not multiply its budget by the byte count.
      const Clock::time_point deadline = Clock::now() + options_.send_timeout;
      for (std::size_t i = 0; ok && i < frame.size(); ++i) {
        ok = write_all_until(link->fd, frame.data() + i, 1, deadline);
        ++syscalls;
      }
    } else {
      ok = write_all(link->fd, frame.data(), frame.size(),
                     options_.send_timeout);
      ++syscalls;
    }
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      link->counters.flush_syscalls += syscalls;
    }
    if (!ok) {
      drop_connection(link);
      return false;
    }
    link->last_tx = now;  // the cycle timestamp, not Clock::now(): bug 3
    link->sent_up_to = item->seq;
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      if (item->ever_sent) {
        ++link->counters.envelopes_resent;
      } else {
        ++find_group(item->group)->counters.envelopes_sent;
      }
    }
    item->ever_sent = true;
  }
  return true;  // batch cap reached; the supervisor comes right back
}

/// Drains acknowledgements from the connection.  Returns false when the
/// peer closed or errored.
bool SocketEndpoint::pump_acks(Link* link) {
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(link->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      link->ack_parser.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  bool any = false;
  while (std::optional<Frame> frame = link->ack_parser.next()) {
    if (frame->type != FrameType::Ack) continue;
    any = true;
    if (frame->seq > link->acked) {
      link->acked = frame->seq;
      std::lock_guard<std::mutex> lock(link->mutex);
      while (!link->hold.empty() && link->hold.front().seq <= link->acked) {
        // The ack retires the frame: its buffer goes back to the pool so
        // the next dispatch reuses the capacity instead of allocating.
        pool_.release(std::move(link->hold.front().frame));
        link->hold.pop_front();
      }
    }
  }
  if (any) {
    link->last_rx = Clock::now();
    link->cv.notify_all();  // wake hold-queue back-pressure waiters
  }
  return !link->ack_parser.poisoned();
}

void SocketEndpoint::supervisor_loop(Link* link) {
  for (;;) {
    const Clock::time_point now = Clock::now();
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping) {
      bool empty;
      {
        std::lock_guard<std::mutex> lock(link->mutex);
        empty = link->hold.empty();
      }
      if (empty || now >= halt_deadline_) break;
    }

    if (link->fd < 0) {
      const bool expedited = expedited_.load(std::memory_order_acquire);
      if (expedited || stopping || link->schedule.due(now)) {
        if (!connect_link(link, now)) {
          link->schedule.on_failure(now);
          if (expedited || stopping) {
            // No backoff while draining; just avoid a busy spin.
            std::this_thread::sleep_for(std::chrono::microseconds{200});
          }
        }
        continue;
      }
      // Sleep until the next allowed attempt, interruptible by expedite().
      std::unique_lock<std::mutex> lock(link->mutex);
      link->cv.wait_for(
          lock, std::min<std::chrono::microseconds>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        link->schedule.current_delay()),
                    std::chrono::microseconds{5'000}));
      continue;
    }

    // Connected: push new frames, pump acks, keep the link warm.
    if (!flush_link(link, now)) continue;
    if (!pump_acks(link)) {
      drop_connection(link);
      continue;
    }
    // One keep-alive decision per poll cycle, against the cycle's single
    // `now` — the flush above stamped last_tx with that same timestamp, so
    // a slow flush can neither trigger a spurious heartbeat nor suppress a
    // due redial within its own cycle.
    switch (keepalive_action(now, link->last_rx, link->last_tx, options_)) {
      case KeepaliveAction::Redial: {
        {
          std::lock_guard<std::mutex> lock(counters_mutex_);
          ++link->counters.peer_timeouts;
        }
        drop_connection(link);
        continue;
      }
      case KeepaliveAction::Heartbeat: {
        static const std::vector<std::uint8_t> hb = encode_heartbeat();
        if (!write_all(link->fd, hb.data(), hb.size(),
                       options_.send_timeout)) {
          drop_connection(link);
          continue;
        }
        link->last_tx = now;
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++link->counters.heartbeats_sent;
        break;
      }
      case KeepaliveAction::None:
        break;
    }

    std::unique_lock<std::mutex> lock(link->mutex);
    // Hold seqs form a contiguous ascending run, so "anything unsent?" is
    // one comparison against the tail — not a scan.
    const bool work_pending =
        !link->hold.empty() && link->hold.back().seq > link->sent_up_to;
    if (!work_pending && !stopping_.load(std::memory_order_acquire)) {
      link->cv.wait_for(lock, std::chrono::microseconds{2'000});
    }
  }
  drop_connection(link);
}

void SocketEndpoint::accept_loop() {
  Rng accept_rng = Rng::for_stream(
      options_.chaos.seed, (static_cast<std::uint64_t>(node_) << 8) | 0xffu);
  while (running_.load(std::memory_order_acquire)) {
    const int ev = poll_one(listen_fd_, POLLIN, std::chrono::milliseconds{20});
    if (ev <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    configure_stream(fd, listen_address_.kind);
    if (chaos_active(Clock::now()) &&
        accept_rng.next_double() < options_.chaos.accept_close_prob) {
      {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++misc_.injected_accept_closes;
      }
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Inbound>();
    conn->fd = fd;
    Inbound* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(inbound_mutex_);
      inbound_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { reader_loop(raw); });
  }
}

void SocketEndpoint::reader_loop(Inbound* conn) {
  FrameParser parser;
  WireWriter ack_writer;  ///< reused across acks; capacity persists
  int peer = -1;  ///< peer node, learned from the connection's HELLO2
  std::uint8_t buf[4096];
  while (running_.load(std::memory_order_acquire)) {
    const int ev = poll_one(conn->fd, POLLIN, std::chrono::milliseconds{20});
    if (ev == 0) continue;
    if (ev < 0 || (ev & POLLERR)) break;
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      break;
    }
    parser.feed(buf, static_cast<std::size_t>(n));
    bool broken = false;
    // Acks are cumulative, so one ack after the whole chunk acknowledges
    // every envelope in it.  Acking per frame both wasted syscalls and
    // could deadlock a loaded link: the reader blocked writing acks into
    // a reverse buffer the sender only drains between flushes, while the
    // sender blocked on POLLOUT in the forward direction — both sides
    // timing out and dropping a healthy connection.
    bool want_ack = false;
    std::uint64_t ack_cumulative = 0;
    while (std::optional<Frame> frame = parser.next()) {
      switch (frame->type) {
        case FrameType::Hello2:
          if (frame->hello_sender >= 0 && frame->hello_sender < num_nodes_ &&
              frame->hello_sender != node_) {
            peer = frame->hello_sender;
          }
          break;
        case FrameType::Envelope2: {
          if (peer < 0) break;  // envelope before HELLO2: protocol error
          NetEnvelope env = std::move(frame->envelope);
          bool fresh = false;
          std::uint64_t cumulative = 0;
          {
            std::lock_guard<std::mutex> lock(delivered_mutex_);
            auto& last = delivered_seq_[static_cast<std::size_t>(peer)];
            if (frame->seq > last) {
              last = frame->seq;
              fresh = true;
            }
            cumulative = last;
          }
          // Demux: the copy belongs to a hosted group, names a plausible
          // group-local sender, and arrived on the link its EMITTER's node
          // owns (spoof guard).  The emitter is `origin` when set, else the
          // sender: `sender` is the claim carried in the payload — a
          // budgeted liar may forge it — while the link itself vouches for
          // who physically sent the bytes.  A forged claim is deliverable
          // precisely because it stays attributable to the liar's link.
          GroupState* group = find_group(env.group);
          const ProcessId wire_emitter =
              env.origin >= 0 ? env.origin : env.sender;
          const bool routable =
              group != nullptr && env.sender >= 0 &&
              env.sender < group->spec.config.n &&
              env.sender != group->spec.self && wire_emitter >= 0 &&
              wire_emitter < group->spec.config.n &&
              group->spec.members[static_cast<std::size_t>(wire_emitter)] ==
                  peer;
          if (fresh) {
            if (routable) {
              if (!group->dead.load(std::memory_order_acquire)) {
                group->spec.inbox->push(std::move(env));
              }
              std::lock_guard<std::mutex> lock(counters_mutex_);
              ++group->counters.envelopes_delivered;
            } else {
              std::lock_guard<std::mutex> lock(counters_mutex_);
              ++misc_.demux_drops;
            }
          } else {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            if (routable) {
              ++group->counters.duplicates_dropped;
            } else {
              ++misc_.duplicates_dropped;
            }
          }
          // Ack only after the mailbox push: an acked copy is a delivered
          // copy (or a deliberate drop to a dead replica / unroutable
          // group).  Deferred to the end of the chunk — cumulative acks
          // make the last one cover the lot.
          want_ack = true;
          ack_cumulative = cumulative;
          break;
        }
        case FrameType::Heartbeat: {
          if (peer >= 0) {
            std::lock_guard<std::mutex> lock(delivered_mutex_);
            ack_cumulative = delivered_seq_[static_cast<std::size_t>(peer)];
          }
          want_ack = true;
          break;
        }
        case FrameType::Ack:
          break;  // acks only flow on outbound connections
      }
      if (broken) break;
    }
    if (want_ack && !broken) {
      ack_writer.clear();
      encode_ack_into(ack_cumulative, ack_writer);
      if (!write_all(conn->fd, ack_writer.data(), ack_writer.size(),
                     options_.send_timeout)) {
        broken = true;
      }
    }
    if (broken || parser.poisoned()) break;
  }
  ::shutdown(conn->fd, SHUT_RDWR);
}

void SocketEndpoint::close_all_inbound() {
  std::lock_guard<std::mutex> lock(inbound_mutex_);
  for (auto& conn : inbound_) ::shutdown(conn->fd, SHUT_RDWR);
}

std::vector<UndeliveredCopy> SocketEndpoint::stop_and_flush() {
  if (flushed_) return {};
  flushed_ = true;

  if (running_.load(std::memory_order_acquire)) {
    // Linger: keep supervisors and readers alive so in-flight copies get
    // acknowledged instead of lingering as pending records.
    halt_deadline_ = Clock::now() + options_.linger;
    stopping_.store(true, std::memory_order_release);
    for (auto& link : links_) link->cv.notify_all();
    for (auto& link : links_) {
      if (link->thread.joinable()) link->thread.join();
    }
    running_.store(false, std::memory_order_release);
    ::shutdown(listen_fd_, SHUT_RDWR);
    close_all_inbound();
    if (accept_thread_.joinable()) accept_thread_.join();
    // Join the readers with no lock held, so a reader can never wait on a
    // lock its joiner holds.  With the acceptor joined, no reader is added
    // behind our back.
    std::vector<std::unique_ptr<Inbound>> readers;
    {
      std::lock_guard<std::mutex> lock(inbound_mutex_);
      readers.swap(inbound_);
    }
    for (auto& conn : readers) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
  } else {
    stopping_.store(true, std::memory_order_release);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<UndeliveredCopy> undelivered;
  {
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    undelivered = std::move(overflow_);
  }
  for (auto& link : links_) {
    std::lock_guard<std::mutex> lock(link->mutex);
    for (const HoldItem& item : link->hold) {
      undelivered.push_back(UndeliveredCopy{item.sender, item.receiver,
                                            item.send_round, 0, item.group});
    }
    link->hold.clear();
  }
  return undelivered;
}

SocketCounters SocketEndpoint::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  SocketCounters total = misc_;
  for (const auto& link : links_) {
    total.connect_attempts += link->counters.connect_attempts;
    total.connect_failures += link->counters.connect_failures;
    total.reconnects += link->counters.reconnects;
    total.envelopes_resent += link->counters.envelopes_resent;
    total.heartbeats_sent += link->counters.heartbeats_sent;
    total.peer_timeouts += link->counters.peer_timeouts;
    total.injected_resets += link->counters.injected_resets;
    total.injected_stalls += link->counters.injected_stalls;
    total.injected_short_writes += link->counters.injected_short_writes;
    total.injected_connect_failures +=
        link->counters.injected_connect_failures;
    total.flush_syscalls += link->counters.flush_syscalls;
  }
  for (const auto& [group, state] : groups_) {
    total.envelopes_sent += state->counters.envelopes_sent;
    total.envelopes_delivered += state->counters.envelopes_delivered;
    total.duplicates_dropped += state->counters.duplicates_dropped;
  }
  return total;
}

LinkCounters SocketEndpoint::link_counters(int node) const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  const Link* link = link_for_node(node);
  return link != nullptr ? link->counters : LinkCounters{};
}

GroupCounters SocketEndpoint::group_counters(GroupId group) const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  const GroupState* state = find_group(group);
  return state != nullptr ? state->counters : GroupCounters{};
}

// ---------------------------------------------------------------------------
// SocketFabric

SocketFabric::SocketFabric(int num_nodes, SocketAddress::Kind kind,
                           const SocketTransportOptions& options) {
  if (kind == SocketAddress::Kind::Unix) {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "indulgence-shard-XXXXXX")
                           .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("socket fabric: mkdtemp failed");
    }
    dir_.path = tmpl;
  }
  // The resolver runs only after start(), when every listener is bound and
  // every TCP ephemeral port is final.
  AddressResolver resolve = [this](ProcessId node)
      -> std::optional<SocketAddress> {
    return endpoints_[static_cast<std::size_t>(node)]->listen_address();
  };
  endpoints_.reserve(static_cast<std::size_t>(num_nodes));
  for (int node = 0; node < num_nodes; ++node) {
    SocketAddress listen =
        kind == SocketAddress::Kind::Unix
            ? SocketAddress::unix_path(dir_.path + "/node" +
                                       std::to_string(node) + ".sock")
            : SocketAddress::tcp_loopback(0);
    SocketTransportOptions per = options;
    per.seed = options.seed + static_cast<std::uint64_t>(node) * 1337;
    endpoints_.push_back(std::make_unique<SocketEndpoint>(
        node, num_nodes, std::move(listen), resolve, std::move(per)));
  }
}

SocketFabric::Directory::~Directory() {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

GroupPort& SocketFabric::host(GroupId group, const SystemConfig& config,
                              ProcessId pid, const std::vector<int>& members,
                              Mailbox* inbox) {
  const int node = members.at(static_cast<std::size_t>(pid));
  SocketEndpoint* endpoint = endpoints_.at(static_cast<std::size_t>(node)).get();
  endpoint->add_group(GroupSpec{group, config, pid, members, inbox});
  ports_.push_back(std::make_unique<GroupPort>(endpoint, group));
  return *ports_.back();
}

void SocketFabric::start(std::chrono::steady_clock::time_point epoch) {
  for (auto& endpoint : endpoints_) endpoint->start(epoch);
}

std::vector<UndeliveredCopy> SocketFabric::stop() {
  if (stopped_) return {};
  stopped_ = true;
  std::vector<std::vector<UndeliveredCopy>> parts(endpoints_.size());
  std::vector<std::thread> stoppers;
  stoppers.reserve(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    stoppers.emplace_back(
        [this, i, &parts] { parts[i] = endpoints_[i]->stop_and_flush(); });
  }
  for (std::thread& t : stoppers) t.join();
  std::vector<UndeliveredCopy> undelivered;
  for (auto& part : parts) {
    undelivered.insert(undelivered.end(), part.begin(), part.end());
  }
  return undelivered;
}

SocketCounters SocketFabric::counters() const {
  SocketCounters total;
  for (const auto& endpoint : endpoints_) total += endpoint->counters();
  return total;
}

GroupCounters SocketFabric::group_counters(GroupId group) const {
  GroupCounters total;
  for (const auto& endpoint : endpoints_) {
    total += endpoint->group_counters(group);
  }
  return total;
}

}  // namespace indulgence
