#include "net/options_rand.hpp"

#include <algorithm>

namespace indulgence {

namespace {

/// Valid draws: upper bound on the wall-clock GST offset (µs), and on the
/// socket draws' chaos window.
constexpr long kMaxGstUs = 2000;
/// Valid draws: partitions per run are uniform in [0, kMaxPartitions] (0
/// when n < 3 — a 2-process cut would silence a quorum forever).
constexpr int kMaxPartitions = 2;
/// Valid draws: crash rounds, and synchronizer corruption rounds, are
/// uniform in [1, kMaxCrashRound].
constexpr Round kMaxCrashRound = 4;
/// Lossy draws: rounds close below quorum after a cap drawn from
/// [kMinRoundCapUs, kMaxRoundCapUs].
constexpr long kMinRoundCapUs = 2000;
constexpr long kMaxRoundCapUs = 8000;

std::chrono::microseconds us(long n) { return std::chrono::microseconds{n}; }

std::chrono::microseconds draw_us(Rng& rng, long lo, long hi) {
  return us(lo + static_cast<long>(
                     rng.next_below(static_cast<std::uint64_t>(hi - lo) + 1)));
}

/// A random nonempty proper subset of {0..n-1}: every cut leaves somebody
/// on each side, so held messages always have a live complement to rejoin.
ProcessSet draw_group(const SystemConfig& config, Rng& rng) {
  const std::uint64_t full = (std::uint64_t{1} << config.n) - 1;
  return ProcessSet::from_mask(1 + rng.next_below(full - 1));
}

/// Transient synchronizer-state corruption draws, appended AFTER every
/// other draw and only for non-lockstep policies, so the draw streams of
/// existing (lockstep) seeds are bit-stable.  Up to two corruptions per
/// run, each flipping up to three soft-state bits in an early round.
void draw_sync_corruptions(LiveOptions& o, const SystemConfig& config,
                           Rng& rng, const LiveGenOptions& gen) {
  o.synchronizer = gen.synchronizer;
  if (gen.synchronizer == SyncKind::Lockstep) return;
  const int corruptions = rng.next_int(0, 2);
  for (int i = 0; i < corruptions; ++i) {
    SyncCorruption c;
    c.pid = static_cast<ProcessId>(
        rng.next_below(static_cast<std::uint64_t>(config.n)));
    c.round = 1 + static_cast<Round>(rng.next_below(
                      static_cast<std::uint64_t>(kMaxCrashRound)));
    c.bits = 1 + rng.next_below(7);  // any nonempty subset of bits 0..2
    o.sync_corruptions.push_back(c);
  }
}

}  // namespace

LiveOptions random_valid_live_options(const SystemConfig& config, Rng& rng,
                                      const LiveGenOptions& gen) {
  LiveOptions o;
  // A third of the runs are synchronous from the first instant (gst = 0);
  // the rest get an asynchronous wall-clock prefix.
  o.gst = rng.chance(1, 3) ? us(0) : draw_us(rng, 1, kMaxGstUs);
  o.pre_gst.floor = draw_us(rng, 0, 200);
  o.pre_gst.jitter = draw_us(rng, 0, 800);
  o.post_gst.floor = draw_us(rng, 10, 60);
  o.post_gst.jitter = draw_us(rng, 0, 120);
  // Grace stays small: a partitioned-away straggler costs one full grace
  // window per round until the cut heals.
  o.quorum_grace = draw_us(rng, 100, 1000);
  o.max_rounds = 64;
  o.seed = rng.next_u64();

  const int partitions =
      config.n >= 3 ? rng.next_int(0, kMaxPartitions) : 0;
  for (int i = 0; i < partitions; ++i) {
    PartitionSpec p;
    p.from = draw_us(rng, 0, std::max<long>(kMaxGstUs - 500, 1));
    p.until = p.from + draw_us(rng, 200, 2000);
    p.group = draw_group(config, rng);
    o.partitions.push_back(p);
  }

  const int crashes = rng.next_int(0, config.t);
  std::vector<ProcessId> pids;
  for (ProcessId pid = 0; pid < config.n; ++pid) pids.push_back(pid);
  for (int i = 0; i < crashes; ++i) {
    // Partial Fisher-Yates: position i gets a uniformly drawn distinct pid.
    const int j = rng.next_int(i, config.n - 1);
    std::swap(pids[static_cast<std::size_t>(i)],
              pids[static_cast<std::size_t>(j)]);
    o.crashes.push_back(
        CrashInjection{pids[static_cast<std::size_t>(i)],
                       1 + static_cast<Round>(
                               rng.next_below(static_cast<std::uint64_t>(
                                   kMaxCrashRound))),
                       rng.chance(1, 2)});
  }
  draw_sync_corruptions(o, config, rng, gen);
  return o;
}

LiveOptions random_socket_live_options(const SystemConfig& config, Rng& rng,
                                       const LiveGenOptions& gen) {
  LiveOptions o = random_valid_live_options(config, rng, gen);
  o.partitions.clear();
  return o;
}

WireChaosOptions random_wire_chaos(Rng& rng) {
  WireChaosOptions chaos;
  chaos.seed = rng.next_u64();
  chaos.until = draw_us(rng, 0, kMaxGstUs);
  chaos.connect_fail_prob = 0.4 * rng.next_double();
  chaos.accept_close_prob = 0.3 * rng.next_double();
  chaos.reset_prob = 0.25 * rng.next_double();
  chaos.stall_prob = 0.3 * rng.next_double();
  chaos.stall = draw_us(rng, 200, 2000);
  chaos.short_write_prob = 0.4 * rng.next_double();
  return chaos;
}

LiveOptions random_lossy_live_options(const SystemConfig& config, Rng& rng,
                                      const LiveGenOptions& gen) {
  (void)config;
  LiveOptions o;
  o.gst = std::chrono::hours{1};
  o.loss_prob = 0.75 + 0.25 * rng.next_double();
  o.pre_gst.floor = draw_us(rng, 0, 100);
  o.pre_gst.jitter = draw_us(rng, 0, 200);
  o.round_cap = draw_us(rng, kMinRoundCapUs, kMaxRoundCapUs);
  o.max_rounds = 2 + static_cast<Round>(rng.next_below(3));
  // The final expedited round's surviving copies land in microseconds; the
  // copies loss already ate will never come, so a long drain buys nothing.
  o.drain_wait = us(20'000);
  o.seed = rng.next_u64();
  // Lossy draws carry the selected policy but no corruption injections:
  // the run is already invalid by construction, so a corrupted-state
  // recovery check would prove nothing.
  o.synchronizer = gen.synchronizer;
  return o;
}

}  // namespace indulgence
