// The repository benchmark: runs one named workload with a seed for
// a fixed wall time, checks every repetition's outputs, and prints the
// end-to-end metrics (untraced) or the per-layer metrics (traced) as
// "@metric <name> <value> <unit>" lines plus one "@result" line, which
// perfbench/run.py turns into the one-line JSON result.  README.md defines
// every metric and says why each workload exists.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out <dir>]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "client/campaign.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "lb/attack.hpp"
#include "lb/explorer.hpp"
#include "metrics.hpp"
#include "net/live_trace.hpp"
#include "net/runtime.hpp"
#include "net/sharded_runtime.hpp"
#include "rsm/rsm.hpp"
#include "sim/kernel.hpp"
#include "sim/validator.hpp"

namespace perfbench {
namespace {

using namespace indulgence;
using client::ClientFleet;
using client::CommandState;
using client::LatencyHistogram;
using client::LoopMode;

// --- names ------------------------------------------------------------------

enum SpanName {
  kSetup,
  kServe,
  kStopToVerdict,
  kTeardown,
  kFleetFinish,
  kOracle,
  kRetime,
  kValidate,
  kGst,
  kRound,
  kMessage,
  kOnRound,
  kPull,
  kCommit,
  kSweep,
  kExplore,
  kAttack,
  kEnumerate,
  kSchedule,
  kKernel,
  kSpanNames
};

constexpr std::array<const char*, kSpanNames> kSpanName = {
    "setup",
    "serve",
    "stop_to_verdict",
    "runtime_teardown",
    "fleet_finish",
    "check_ingest_oracle",
    "retime",
    "validate_trace",
    "minimal_conforming_gst",
    "round",
    "message_for_round",
    "on_round",
    "pull",
    "commit",
    "sweep",
    "explore",
    "attack_search",
    "for_each_action_sequence",
    "schedule_from_actions",
    "run_schedule",
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics.  Each repetition also measures `verdict_s`
/// (stop request to the oracle's verdict) for its table and report, but it
/// is not gated: the single-threaded validation behind it moves with the
/// host by more than any bound allows.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},  {"p50_ms", "ms"},       {"p99_ms", "ms"},
    {"ok_ratio", "ratio"}, {"setup_s", "s"},       {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"client.pull_hit_ratio", "ratio"},
    {"client.pull_ns", "ns"},
    {"client.commit_cb_ns", "ns"},
    {"client.commit_cb_per_ack", "count"},
    {"client.ingest_wait_us.p50", "us"},
    {"client.ingest_wait_us.p99", "us"},
    {"client.offered_rate_err", "ratio"},
    {"client.oracle_s", "s"},
    {"rsm.cmds_per_round", "count"},
    {"rsm.noop_slot_ratio", "ratio"},
    {"rsm.decide_rounds.p50", "rounds"},
    {"rsm.decide_rounds.p99", "rounds"},
    {"rsm.pull_to_commit_us.p50", "us"},
    {"rsm.pull_to_commit_us.p99", "us"},
    {"rsm.step_us.p50", "us"},
    {"rsm.step_us.p99", "us"},
    {"net.round_us.p50", "us"},
    {"net.round_us.p99", "us"},
    {"net.round_wait_us.p50", "us"},
    {"net.rounds_per_s", "1/s"},
    {"net.late_copy_ratio", "ratio"},
    {"net.gst_round_share", "ratio"},
    {"net.msgs_per_cmd", "count"},
    {"net.frames_per_flush", "count"},
    {"net.resent", "count"},
    {"net.reconnects", "count"},
    {"net.teardown_s", "s"},
    {"sim.validate_s", "s"},
    {"sim.gst_s", "s"},
    {"sim.trace_deliveries", "count"},
    {"sim.kernel_us_per_run", "us"},
    {"sim.validate_us_per_run", "us"},
    {"lb.runs", "count"},
    {"lb.explore_runs_per_s", "1/s"},
    {"lb.attack_runs_per_s", "1/s"},
    {"pool.speedup", "ratio"},
    {"core.worst_decision_round.at2.n3t1", "rounds"},
    {"core.worst_decision_round.at2.n4t1", "rounds"},
    {"core.worst_decision_round.at2.n5t2", "rounds"},
    {"core.worst_decision_round.hr.n3t1", "rounds"},
    {"core.worst_decision_round.hr.n4t1", "rounds"},
    {"core.worst_decision_round.hr.n5t2", "rounds"},
};

// --- helpers ----------------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// Each repetition measures its own resident-memory peak: freed heap pages
/// go back to the kernel and the high-water mark restarts from the current
/// resident size.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Repetition r of a run draws its inputs from (seed, r), so one seed always
/// gives the same input sequence.
std::uint64_t rep_seed(std::uint64_t seed, int rep) {
  return Rng::for_stream(seed, static_cast<std::uint64_t>(rep)).next_u64();
}

/// One repetition's figures and verdict.
struct Rep {
  std::map<std::string, double> e2e;    ///< end-to-end metrics
  std::map<std::string, double> layer;  ///< per-layer metrics (traced only)
  std::uint64_t samples = 0;            ///< latency samples behind p50/p99
  long attempted = 0;
  long failed = 0;
  std::string error;  ///< the first failed correctness check, if any
  std::vector<std::vector<Span>> spans;  ///< traced only: one list per thread
};

void fail(Rep& rep, const std::string& why) {
  if (rep.error.empty()) rep.error = why;
}

void set_latency(Rep& rep, std::uint64_t samples, double p50_ms,
                 double p99_ms) {
  rep.samples = samples;
  rep.e2e["p50_ms"] = p50_ms;
  rep.e2e["p99_ms"] = p99_ms;
  if (!quantile_supported(samples, 0.99)) {
    fail(rep, "only " + std::to_string(samples) +
                  " latency samples: p99 needs ten beyond it");
  }
}

void set_latency(Rep& rep, const LatencyHistogram& h, double per_ms) {
  set_latency(rep, h.count(), static_cast<double>(h.quantile(0.50)) / per_ms,
              static_cast<double>(h.quantile(0.99)) / per_ms);
}

void set_ok_ratio(Rep& rep) {
  rep.e2e["ok_ratio"] =
      rep.attempted > 0
          ? 1.0 - static_cast<double>(rep.failed) /
                      static_cast<double>(rep.attempted)
          : 0.0;
  if (rep.attempted < 1) fail(rep, "nothing attempted");
}

/// First instant a predicate fired, shared across the replica threads.
class Stamp {
 public:
  void mark() {
    Clock::rep expected = 0;
    ticks_.compare_exchange_strong(expected,
                                   Clock::now().time_since_epoch().count());
  }
  std::optional<Clock::time_point> get() const {
    const Clock::rep t = ticks_.load();
    if (t == 0) return std::nullopt;
    return Clock::time_point(Clock::duration(t));
  }

 private:
  std::atomic<Clock::rep> ticks_{0};
};

/// Open loop: the first commit of every (client, seq) at any replica, in ns
/// from the run epoch (+1, so 0 means "not committed").
class FirstCommits {
 public:
  FirstCommits(int clients, std::size_t per_client) : clients_(clients) {
    for (int c = 0; c < clients; ++c) {
      stamps_.emplace_back(per_client);
    }
  }

  void set_epoch(Clock::time_point epoch) { epoch_ = epoch; }

  void note(Value value) {
    if (is_rsm_noop(value)) return;
    const auto id = client::decode_command(value, clients_);
    if (!id) return;
    auto& per = stamps_[static_cast<std::size_t>(id->client)];
    if (id->seq < 0 || static_cast<std::size_t>(id->seq) >= per.size()) return;
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count() +
        1;
    std::int64_t expected = 0;
    per[static_cast<std::size_t>(id->seq)].compare_exchange_strong(expected,
                                                                   now);
  }

  /// ns from the epoch, or nullopt when never committed (or untracked).
  std::optional<std::int64_t> at(int client, long seq) const {
    const auto& per = stamps_[static_cast<std::size_t>(client)];
    if (seq < 0 || static_cast<std::size_t>(seq) >= per.size()) {
      return std::nullopt;
    }
    const std::int64_t v = per[static_cast<std::size_t>(seq)].load();
    if (v == 0) return std::nullopt;
    return v - 1;
  }

 private:
  int clients_;
  Clock::time_point epoch_{};
  std::vector<std::vector<std::atomic<std::int64_t>>> stamps_;
};

/// Times one replica's send and receive steps into its span buffer.  Its
/// round span runs from one send step to the next, so the round's self time
/// is the wait outside the algorithm.  The wrapped RsmReplica stays
/// reachable through inner() for the ingest oracle.
class TracedReplica final : public RoundAlgorithm {
 public:
  TracedReplica(std::unique_ptr<RoundAlgorithm> inner, SpanBuffer& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void propose(Value v) override { inner_->propose(v); }

  MessagePtr message_for_round(Round k) override {
    if (spans_.is_open(kRound)) spans_.close();
    spans_.open(kRound, k);
    spans_.open(kMessage, k);
    MessagePtr message = inner_->message_for_round(k);
    spans_.close();
    return message;
  }

  void on_round(Round k, const Delivery& delivered) override {
    spans_.open(kOnRound, k);
    inner_->on_round(k, delivered);
    spans_.close();
  }

  std::optional<Value> decision() const override { return inner_->decision(); }
  bool halted() const override { return inner_->halted(); }
  std::string name() const override { return inner_->name(); }

  const RoundAlgorithm& inner() const { return *inner_; }

 private:
  std::unique_ptr<RoundAlgorithm> inner_;
  SpanBuffer& spans_;
};

const RsmReplica* as_replica(const RoundAlgorithm& algorithm) {
  if (const auto* traced = dynamic_cast<const TracedReplica*>(&algorithm)) {
    return dynamic_cast<const RsmReplica*>(&traced->inner());
  }
  return dynamic_cast<const RsmReplica*>(&algorithm);
}

// --- live workloads ----------------------------------------------------------

constexpr SystemConfig kLiveConfig{3, 1};
constexpr Round kSlotWindow = 1;
constexpr int kSlotBurst = 16;

struct LiveSpec {
  bool sharded;  ///< run_sharded over Unix sockets vs the in-process router
  LoopMode mode;
  int clients;
  int outstanding;  ///< closed loop: commands in flight per client
  double rate;      ///< open loop: aggregate arrivals per second
  long warmup;      ///< acks before the measure window opens
  long measure;     ///< measured acks that end the run
  Round max_rounds;
  std::chrono::seconds deadline;  ///< fleet wall cap; hitting it fails the run
  /// LiveOptions::round_floor.  Above the round path's own length it fixes
  /// rounds per second, so a repetition's rounds, trace, validator time and
  /// memory do not follow the host's speed, and latency counts rounds.
  std::chrono::microseconds round_floor;
  /// LiveOptions::quorum_grace.  Under a floor it must outlast the floor:
  /// the grace runs from the quorum, so a shorter one has always expired
  /// when the floor passes, every round closes on the first n - t senders,
  /// and the last replica's copies (and its commands) are always late.
  std::chrono::microseconds quorum_grace;
  /// The traced run also runs the lockstep sweep once, for the lockstep
  /// layers (lb, pool, core, and the kernel's per-run costs).
  bool lockstep_probe;
};

constexpr int kShardedGroups = 2;
constexpr int kShardedNodes = 3;

AlgorithmFactory slot_factory() {
  At2Options ff;
  ff.failure_free_opt = true;
  return at2_factory(hurfin_raynal_factory(), ff);
}

RsmOptions rsm_options(const LiveSpec& spec) {
  RsmOptions rsm;
  rsm.slot_window = kSlotWindow;
  rsm.slot_burst = kSlotBurst;
  rsm.decide_retention = 2;
  // As client::run_campaign sizes it: one burst per window step up to the
  // round cap, plus slack.
  rsm.num_slots = (spec.max_rounds / kSlotWindow + 2) * kSlotBurst;
  return rsm;
}

/// Per-name span counts and durations, summed over threads and repetitions.
struct SelfRow {
  long count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
using SelfTable = std::array<SelfRow, kSpanNames>;

void tally(const std::vector<Span>& spans, SelfTable& table) {
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfRow& row = table[static_cast<std::size_t>(spans[i].name)];
    ++row.count;
    row.total_ns += spans[i].end - spans[i].start;
    row.self_ns += self[i];
  }
}

/// Quantile in µs of a histogram of nanosecond durations.
double us_quantile(const LatencyHistogram& h, double q) {
  return static_cast<double>(h.quantile(q)) / 1e3;
}

/// Quantile of a histogram of whole rounds.
double round_quantile(const LatencyHistogram& h, double q) {
  return static_cast<double>(h.quantile(q));
}

/// Everything a live repetition leaves behind for the per-layer figures.
struct LiveOutcome {
  const LiveSpec* spec = nullptr;
  Clock::time_point epoch, stop, returned, oracle_start, verdict;
  std::vector<const RunTrace*> traces;  ///< one per group
  std::vector<std::vector<const RsmReplica*>> replicas;
  std::vector<std::vector<std::uint64_t>> due;  ///< open loop, per client
  const ClientFleet* fleet = nullptr;
  const client::OracleReport* oracle = nullptr;
  SocketCounters counters;
  std::vector<std::unique_ptr<SpanBuffer>>* buffers = nullptr;
};

void live_layers(const LiveOutcome& run, SpanBuffer& main, Rep& rep) {
  const LiveSpec& spec = *run.spec;
  auto& m = rep.layer;
  const std::int64_t epoch_ns = main.ns(run.epoch);

  // Replica-rounds, steps, pulls, and commits from the replicas' spans;
  // durations in ns.
  LatencyHistogram round_ns, wait_ns, step_ns, pull_to_commit_ns, ingest_ns;
  long pulls = 0, hits = 0, command_commits = 0;
  std::int64_t pull_ns = 0, commit_ns = 0;
  std::unordered_map<std::int64_t, std::int64_t> first_pull, first_commit;
  for (auto& buffer : *run.buffers) {
    std::vector<Span> spans = buffer->finish();
    const std::vector<std::int64_t> self = self_times(spans);
    std::vector<std::int64_t> step(spans.size(), 0);
    for (const Span& s : spans) {
      if ((s.name == kMessage || s.name == kOnRound) && s.parent >= 0) {
        step[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t length = s.end - s.start;
      if (s.name == kRound) {
        round_ns.record(length);
        wait_ns.record(self[i]);
        step_ns.record(step[i]);
      } else if (s.name == kPull) {
        ++pulls;
        pull_ns += length;
        if (s.id != 0) {
          ++hits;
          first_pull.emplace(s.id, s.start);
        }
      } else if (s.name == kCommit && !is_rsm_noop(s.id)) {
        ++command_commits;
        commit_ns += length;
        auto [it, fresh] = first_commit.emplace(s.id, s.start);
        if (!fresh) it->second = std::min(it->second, s.start);
      }
    }
    rep.spans.push_back(std::move(spans));
  }
  for (const auto& [id, pulled] : first_pull) {
    const auto committed = first_commit.find(id);
    if (committed != first_commit.end()) {
      pull_to_commit_ns.record(committed->second - pulled);
    }
    if (spec.mode == LoopMode::Closed) continue;
    const auto cmd = client::decode_command(id, spec.clients);
    if (!cmd) continue;
    const auto& due = run.due[static_cast<std::size_t>(cmd->client)];
    if (cmd->seq < static_cast<long>(due.size())) {
      const std::int64_t due_ns =
          epoch_ns +
          static_cast<std::int64_t>(due[static_cast<std::size_t>(cmd->seq)]) *
              1000;
      ingest_ns.record(pulled - due_ns);
    }
  }

  const client::FleetCounters counts = run.fleet->counters();
  const double acked = static_cast<double>(counts.acked + counts.late_acks);
  m["client.pull_hit_ratio"] =
      pulls > 0 ? static_cast<double>(hits) / static_cast<double>(pulls) : 0;
  m["client.pull_ns"] =
      pulls > 0 ? static_cast<double>(pull_ns) / static_cast<double>(pulls) : 0;
  m["client.commit_cb_ns"] =
      command_commits > 0 ? static_cast<double>(commit_ns) /
                                static_cast<double>(command_commits)
                          : 0;
  m["client.commit_cb_per_ack"] =
      acked > 0 ? static_cast<double>(command_commits) / acked : 0;
  m["client.ingest_wait_us.p50"] = us_quantile(ingest_ns, 0.50);
  m["client.ingest_wait_us.p99"] = us_quantile(ingest_ns, 0.99);
  if (spec.mode != LoopMode::Closed) {
    const double span = run.fleet->offered_span_seconds();
    const double offered =
        span > 0 ? static_cast<double>(run.fleet->total_offered()) / span : 0;
    m["client.offered_rate_err"] = std::abs(offered - spec.rate) / spec.rate;
  } else {
    m["client.offered_rate_err"] = 0;
  }
  m["client.oracle_s"] = seconds_between(run.oracle_start, run.verdict);

  // The paper's price per slot: rounds from the slot's start to each
  // replica's commit.
  LatencyHistogram decide_rounds;
  for (const auto& group : run.replicas) {
    for (const RsmReplica* replica : group) {
      const auto slots = static_cast<int>(replica->log().size());
      for (int slot = 0; slot < slots; ++slot) {
        const Round committed = replica->commit_round(slot);
        if (committed <= 0) continue;
        const Round start = (slot / kSlotBurst) * kSlotWindow + 1;
        decide_rounds.record(committed - start + 1);
      }
    }
  }
  long rounds = 0, deliveries = 0, late = 0;
  double gst_share = 0;
  for (const RunTrace* trace : run.traces) {
    rounds += trace->rounds_executed();
    deliveries += static_cast<long>(trace->deliveries().size());
    for (const DeliveryRecord& d : trace->deliveries()) {
      if (d.recv_round > d.send_round) ++late;
    }
    gst_share += trace->rounds_executed() > 0
                     ? static_cast<double>(trace->gst()) /
                           static_cast<double>(trace->rounds_executed())
                     : 0;
  }
  const double groups = static_cast<double>(run.traces.size());
  const double commands =
      static_cast<double>(std::max(1L, run.oracle->committed_commands));
  m["rsm.cmds_per_round"] =
      rounds > 0 ? static_cast<double>(run.oracle->committed_commands) /
                       static_cast<double>(rounds)
                 : 0;
  const double slots = static_cast<double>(run.oracle->noop_commits +
                                           run.oracle->committed_commands);
  m["rsm.noop_slot_ratio"] =
      slots > 0 ? static_cast<double>(run.oracle->noop_commits) / slots : 0;
  m["rsm.decide_rounds.p50"] = round_quantile(decide_rounds, 0.50);
  m["rsm.decide_rounds.p99"] = round_quantile(decide_rounds, 0.99);
  m["rsm.pull_to_commit_us.p50"] = us_quantile(pull_to_commit_ns, 0.50);
  m["rsm.pull_to_commit_us.p99"] = us_quantile(pull_to_commit_ns, 0.99);
  m["rsm.step_us.p50"] = us_quantile(step_ns, 0.50);
  m["rsm.step_us.p99"] = us_quantile(step_ns, 0.99);
  m["net.round_us.p50"] = us_quantile(round_ns, 0.50);
  m["net.round_us.p99"] = us_quantile(round_ns, 0.99);
  m["net.round_wait_us.p50"] = us_quantile(wait_ns, 0.50);
  m["net.rounds_per_s"] = static_cast<double>(rounds) / groups /
                          seconds_between(run.epoch, run.stop);
  m["net.late_copy_ratio"] =
      deliveries > 0
          ? static_cast<double>(late) / static_cast<double>(deliveries)
          : 0;
  m["net.gst_round_share"] = gst_share / groups;
  m["net.msgs_per_cmd"] = static_cast<double>(deliveries) / commands;
  const SocketCounters& c = run.counters;
  m["net.frames_per_flush"] =
      c.flush_syscalls > 0
          ? static_cast<double>(c.envelopes_sent + c.envelopes_resent) /
                static_cast<double>(c.flush_syscalls)
          : 0;
  m["net.resent"] = static_cast<double>(c.envelopes_resent);
  m["net.reconnects"] = static_cast<double>(c.reconnects);
  m["sim.trace_deliveries"] = static_cast<double>(deliveries);

  // The runtime validated and derived GST inside run(); re-time both on the
  // merged traces, after the verdict so the traced verdict_s stays
  // comparable, and take them out of the teardown figure.
  main.open(kRetime);
  double validate_s = 0, gst_s = 0;
  for (const RunTrace* trace : run.traces) {
    const auto a = Clock::now();
    main.open(kValidate);
    const bool valid = validate_trace(*trace).ok();
    main.close();
    const auto b = Clock::now();
    main.open(kGst);
    const bool same_gst = minimal_conforming_gst(*trace) == trace->gst();
    main.close();
    validate_s += seconds_between(a, b);
    gst_s += seconds_between(b, Clock::now());
    if (!valid) fail(rep, "re-validated trace is invalid");
    if (!same_gst) fail(rep, "re-derived GST differs");
  }
  main.close();
  m["sim.validate_s"] = validate_s;
  m["sim.gst_s"] = gst_s;
  m["net.teardown_s"] =
      seconds_between(run.stop, run.returned) - validate_s - gst_s;
}

Rep run_live(const LiveSpec& spec, std::uint64_t seed, bool traced) {
  Rep rep;
  const SystemConfig config = kLiveConfig;
  const int groups = spec.sharded ? kShardedGroups : 1;
  const bool open = spec.mode != LoopMode::Closed;

  client::WorkloadOptions w;
  w.mode = spec.mode;
  w.num_clients = spec.clients;
  w.outstanding = spec.outstanding;
  w.target_rate_per_sec = open ? spec.rate : 1.0;
  // Far above what a healthy run keeps in flight: shedding means a stall.
  w.pending_window = 1 << 14;
  w.warmup_commands = spec.warmup;
  w.measure_commands = spec.measure;
  w.deadline = spec.deadline;
  w.seed = seed;

  // Bookkeeping the benchmark allocates before the clock starts.
  const std::size_t tracked =
      open ? static_cast<std::size_t>(spec.rate / spec.clients *
                                      (static_cast<double>(
                                           spec.deadline.count()) +
                                       10.0) *
                                      1.2) +
                 64
           : 0;
  FirstCommits firsts(spec.clients, tracked);
  Stamp stop;

  const Clock::time_point origin = Clock::now();
  SpanBuffer main(origin);
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  if (traced) {
    for (int i = 0; i < groups * config.n; ++i) {
      buffers.push_back(std::make_unique<SpanBuffer>(origin));
    }
  }
  auto buffer_of = [&](GroupId g, ProcessId pid) -> SpanBuffer* {
    return traced ? buffers[static_cast<std::size_t>(g * config.n + pid)].get()
                  : nullptr;
  };

  ClientFleet fleet(w, groups, config.n);
  auto source_for = [&](GroupId g, ProcessId pid) -> RsmCommandSource {
    RsmCommandSource inner = fleet.source_for(g, pid);
    SpanBuffer* spans = buffer_of(g, pid);
    if (!spans) return inner;
    return [inner, spans]() -> std::optional<Value> {
      spans->open(kPull);
      const std::optional<Value> v = inner();
      spans->close(v ? *v : 0);
      return v;
    };
  };
  auto commit_for = [&](GroupId g, ProcessId pid) -> RsmCommitCallback {
    RsmCommitCallback inner = fleet.commit_for(g, pid);
    SpanBuffer* spans = buffer_of(g, pid);
    FirstCommits* book = open ? &firsts : nullptr;
    if (!spans && !book) return inner;
    return [inner, spans, book](int slot, Value v, Round round) {
      if (book) book->note(v);
      if (spans) spans->open(kCommit, v);
      inner(slot, v, round);
      if (spans) spans->close();
    };
  };
  auto traced_factory = [&](AlgorithmFactory inner,
                            GroupId g) -> AlgorithmFactory {
    if (!traced) return inner;
    return [inner, g, &buffer_of](ProcessId pid, const SystemConfig& c)
               -> std::unique_ptr<RoundAlgorithm> {
      return std::make_unique<TracedReplica>(inner(pid, c), *buffer_of(g, pid));
    };
  };
  const DonePredicate fleet_done = fleet.done_predicate();
  const DonePredicate done = [fleet_done, &stop](const RoundAlgorithm& a) {
    if (!fleet_done(a)) return false;
    stop.mark();
    return true;
  };
  Clock::time_point started{}, epoch{};
  auto on_start = [&](Clock::time_point e) {
    started = Clock::now();
    epoch = e;
    firsts.set_epoch(e);
    fleet.start(e);
  };

  LiveOptions live;
  live.seed = seed;
  live.max_rounds = spec.max_rounds;
  live.round_floor = spec.round_floor;
  live.quorum_grace = spec.quorum_grace;
  const RsmOptions rsm = rsm_options(spec);
  const std::vector<Value> noops(static_cast<std::size_t>(config.n),
                                 kNoOpCommand);

  LiveOutcome run;
  run.spec = &spec;
  run.replicas.resize(static_cast<std::size_t>(groups));
  std::optional<LiveRuntime> runtime;
  RunResult single;
  ShardedResult sharded;
  std::vector<const RunResult*> results;
  if (!spec.sharded) {
    runtime.emplace(config, live);
    runtime->set_done_predicate(done);
    runtime->set_start_hook(on_start);
    single = runtime->run(
        traced_factory(
            rsm_ingest_factory(
                slot_factory(),
                [&](ProcessId pid) { return source_for(0, pid); },
                [&](ProcessId pid) { return commit_for(0, pid); }, rsm),
            0),
        noops);
    run.returned = Clock::now();
    results.push_back(&single);
    for (const auto& algorithm : runtime->algorithms()) {
      run.replicas[0].push_back(as_replica(*algorithm));
    }
  } else {
    ShardedOptions options;
    options.num_nodes = kShardedNodes;
    options.num_groups = groups;
    options.config = config;
    options.live = live;
    options.kind = SocketAddress::Kind::Unix;
    options.socket.seed = seed;
    options.done = done;
    options.on_start = on_start;
    const auto ingest = sharded_rsm_ingest_factory(slot_factory(), source_for,
                                                   commit_for, rsm);
    sharded = run_sharded(
        options, [&](GroupId g) { return traced_factory(ingest(g), g); },
        [&](GroupId) { return noops; });
    run.returned = Clock::now();
    for (const auto& [g, outcome] : sharded.groups) {
      results.push_back(&outcome.result);
      for (const auto& algorithm : outcome.algorithms) {
        run.replicas[static_cast<std::size_t>(g)].push_back(
            as_replica(*algorithm));
      }
    }
    run.counters = sharded.counters;
  }
  fleet.finish();
  const Clock::time_point finished = Clock::now();
  run.oracle_start = finished;
  const client::OracleReport oracle =
      client::check_ingest_oracle(fleet, run.replicas);
  run.verdict = Clock::now();

  // --- correctness gate ------------------------------------------------------
  for (const RunResult* result : results) {
    run.traces.push_back(&result->trace);
    if (!result->validation.ok()) fail(rep, "trace fails the validator");
    if (!result->trace.terminated()) fail(rep, "run hit its round cap");
  }
  for (const auto& group : run.replicas) {
    for (const RsmReplica* replica : group) {
      if (!replica) fail(rep, "a replica is not an RsmReplica");
    }
  }
  if (!oracle.ok()) fail(rep, "ingest oracle rejected the committed logs");
  if (!fleet.target_reached() || fleet.hit_deadline()) {
    fail(rep, "the fleet missed its ack target before the deadline");
  }
  const std::optional<Clock::time_point> stopped = stop.get();
  if (!stopped) {
    fail(rep, "the run never requested its armed stop");
    return rep;
  }
  run.stop = *stopped;
  run.epoch = epoch;

  // --- end-to-end figures ----------------------------------------------------
  const client::FleetCounters counts = fleet.counters();
  const double span = fleet.measured_span_seconds();
  rep.e2e["ops_per_s"] =
      span > 0 ? static_cast<double>(counts.measured_acked) / span : 0;
  rep.e2e["verdict_s"] = seconds_between(run.stop, run.verdict);
  rep.e2e["setup_s"] = seconds_between(origin, started);
  const long lost =
      oracle.acked_all_committed
          ? 0
          : std::max(1L, counts.acked + counts.late_acks -
                             oracle.committed_commands);
  if (!open) {
    set_latency(rep, fleet.merged_measure_histogram(), 1000.0);
    rep.attempted = counts.submitted;
    rep.failed = counts.shed + counts.abandoned + lost;
  } else {
    // Open loop: re-derive every client's due instants, count only the
    // arrivals due before the stop request, and time each command from its
    // due instant to its first commit.
    const auto stop_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(run.stop - epoch)
            .count());
    const auto finish_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(finished - epoch)
            .count());
    std::vector<std::pair<std::int64_t, std::int64_t>> acks;  // commit, ns
    for (int c = 0; c < spec.clients; ++c) {
      std::vector<std::uint64_t> due = due_instants(w, c, finish_us);
      const long seqs = fleet.seqs_of(c);
      std::vector<CommandState> states;
      for (long s = 0; s < seqs; ++s) states.push_back(fleet.state_of(c, s));
      const WindowCounts window = count_due_window(due, states, stop_us);
      rep.attempted += window.attempted;
      rep.failed += window.failed;
      if (seqs > static_cast<long>(due.size()) || seqs < window.attempted) {
        fail(rep, "client " + std::to_string(c) + " generated " +
                      std::to_string(seqs) + " arrivals; re-derived " +
                      std::to_string(window.attempted) + " before the stop, " +
                      std::to_string(due.size()) + " before finish");
      }
      for (long s = 0; s < window.attempted && s < seqs; ++s) {
        const auto committed = firsts.at(c, s);
        if (!committed) continue;
        acks.emplace_back(
            *committed,
            *committed -
                static_cast<std::int64_t>(due[static_cast<std::size_t>(s)]) *
                    1000);
      }
      run.due.push_back(std::move(due));
    }
    rep.failed += lost;
    // Exact quantiles of the raw samples: under the round floor a
    // repetition's quantiles land in the same histogram bucket run after run.
    std::sort(acks.begin(), acks.end());
    std::vector<double> latency_ms;
    for (std::size_t i = static_cast<std::size_t>(spec.warmup);
         i < acks.size(); ++i) {
      latency_ms.push_back(static_cast<double>(acks[i].second) / 1e6);
    }
    set_latency(rep, latency_ms.size(), bench::percentile_of(latency_ms, 0.50),
                bench::percentile_of(latency_ms, 0.99));
  }
  set_ok_ratio(rep);

  if (traced) {
    main.add(kSetup, origin, started);
    main.add(kServe, started, run.stop);
    const int verdict = main.add(kStopToVerdict, run.stop, run.verdict);
    main.add(kTeardown, run.stop, run.returned, verdict);
    main.add(kFleetFinish, run.returned, finished, verdict);
    main.add(kOracle, run.oracle_start, run.verdict, verdict);
    run.fleet = &fleet;
    run.oracle = &oracle;
    run.buffers = &buffers;
    live_layers(run, main, rep);
    rep.spans.push_back(main.finish());
  }
  return rep;
}

// --- lockstep sweep ----------------------------------------------------------

/// One search of the sweep's fixed run set.
struct Search {
  SystemConfig config;
  bool attack;  ///< ES attack search vs exhaustive synchronous exploration
  bool hr;      ///< Hurfin-Raynal vs A_{t+2}
};

constexpr std::array<Search, 8> kSearches = {{
    {{3, 1}, false, false},
    {{3, 1}, false, true},
    {{3, 1}, true, false},
    {{4, 1}, false, false},
    {{4, 1}, false, true},
    {{4, 1}, true, false},
    {{5, 2}, false, false},
    {{5, 2}, false, true},
}};

/// Runs the searches above perform in total; every sweep must do exactly
/// this much work.
constexpr long kSweepRuns = 140'816;
constexpr Round kMaxRounds = 64;
constexpr Round kDelayGap = 2;
/// Adversary sequences per search in the single-threaded sample (every
/// sequence of a smaller space).
constexpr std::size_t kSamplePerSearch = 1024;

AlgorithmFactory search_factory(const Search& s) {
  return s.hr ? hurfin_raynal_factory() : bench::default_at2();
}

/// Per search, distinct proposals 0..n-1 in a seeded order.
std::vector<std::vector<Value>> sweep_proposals(std::uint64_t seed) {
  std::vector<std::vector<Value>> all;
  Rng rng(seed);
  for (const Search& s : kSearches) {
    std::vector<Value> v = distinct_proposals(s.config.n);
    for (int i = s.config.n - 1; i > 0; --i) {
      std::swap(v[static_cast<std::size_t>(i)],
                v[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    }
    all.push_back(std::move(v));
  }
  return all;
}

std::string nt_key(const SystemConfig& c) {
  return "n" + std::to_string(c.n) + "t" + std::to_string(c.t);
}

struct SweepTotals {
  long runs = 0;
  long explore_runs = 0, attack_runs = 0;
  double explore_s = 0, attack_s = 0;
  std::map<std::string, Round> worst;  ///< "at2.n3t1" -> worst round
  std::string error;
};

/// The fixed run set at `jobs` workers; spans go to `main` when given.
SweepTotals sweep(const std::vector<std::vector<Value>>& proposals, int jobs,
                  SpanBuffer* main) {
  SweepTotals totals;
  CampaignOptions campaign;
  campaign.jobs = jobs;
  if (main) main->open(kSweep, jobs);
  for (std::size_t i = 0; i < kSearches.size(); ++i) {
    const Search& s = kSearches[i];
    const int t = s.config.t;
    if (main) main->open(s.attack ? kAttack : kExplore, static_cast<int>(i));
    const auto begin = Clock::now();
    if (s.attack) {
      AttackOptions options;
      options.action_rounds = t + 2;
      options.delay_gap = kDelayGap;
      options.max_rounds = kMaxRounds;
      std::vector<Value> reversed = proposals[i];
      std::reverse(reversed.begin(), reversed.end());
      options.proposal_vectors = {proposals[i], reversed};
      options.campaign = campaign;
      const AttackResult r =
          search_agreement_violation(s.config, search_factory(s), options);
      totals.attack_runs += r.runs_tried;
      totals.runs += r.runs_tried;
      totals.attack_s += seconds_between(begin, Clock::now());
      if (r.violation_found) {
        totals.error = "attack search broke A_{t+2} at " +
                       nt_key(s.config) + ": " + r.description;
      }
    } else {
      SyncRunExplorer explorer(s.config, search_factory(s), proposals[i]);
      const SyncRunExplorer::Stats st =
          explorer.explore(t + 2, kMaxRounds, campaign);
      totals.explore_runs += st.runs;
      totals.runs += st.runs;
      totals.explore_s += seconds_between(begin, Clock::now());
      const Round expected = s.hr ? 2 * t + 2 : t + 2;
      const std::string key =
          std::string(s.hr ? "hr." : "at2.") + nt_key(s.config);
      totals.worst[key] = st.max_decision_round;
      if (!st.all_ok()) {
        totals.error = "exploration of " + key + " found a bad run";
      } else if (st.max_decision_round != expected) {
        totals.error = key + " worst decision round " +
                       std::to_string(st.max_decision_round) + ", paper " +
                       std::to_string(expected);
      }
    }
    if (main) main->close();
  }
  if (main) main->close();
  if (totals.error.empty() && totals.runs != kSweepRuns) {
    totals.error = "sweep ran " + std::to_string(totals.runs) + " runs, not " +
                   std::to_string(kSweepRuns);
  }
  return totals;
}

Rep run_sweep(std::uint64_t seed, int jobs, bool traced) {
  Rep rep;
  const Clock::time_point origin = Clock::now();
  SpanBuffer main(origin);
  SpanBuffer* spans = traced ? &main : nullptr;

  // Set-up: seeded proposals, then the sampled schedules, built from the
  // enumerated adversary space of every search.
  const std::vector<std::vector<Value>> proposals = sweep_proposals(seed);
  struct Sampled {
    std::size_t search;
    RunSchedule schedule;
  };
  std::vector<Sampled> sample;
  Rng pick(seed ^ 0x5a3b1e);
  for (std::size_t i = 0; i < kSearches.size(); ++i) {
    const Search& s = kSearches[i];
    // A seeded uniform choice of kSamplePerSearch sequences (reservoir).
    std::vector<std::vector<AdversaryAction>> chosen;
    std::uint64_t seen = 0;
    if (spans) spans->open(kEnumerate, static_cast<int>(i));
    for_each_action_sequence(
        s.config, s.config.t + 2, s.attack, kDelayGap,
        [&](const std::vector<AdversaryAction>& actions) {
          ++seen;
          if (chosen.size() < kSamplePerSearch) {
            chosen.push_back(actions);
          } else if (const std::uint64_t j = pick.next_below(seen);
                     j < kSamplePerSearch) {
            chosen[j] = actions;
          }
          return true;
        });
    if (spans) spans->close();
    for (const auto& actions : chosen) {
      if (spans) spans->open(kSchedule, static_cast<int>(i));
      sample.push_back({i, schedule_from_actions(s.config, actions)});
      if (spans) spans->close();
    }
  }
  const Clock::time_point first_call = Clock::now();
  const SweepTotals totals = sweep(proposals, jobs, spans);
  const Clock::time_point swept = Clock::now();

  // The single-threaded sample: one lockstep run simulated, then validated.
  LatencyHistogram run_ns, decision_rounds;
  long invalid = 0;
  KernelOptions kernel;
  kernel.model = Model::ES;
  kernel.max_rounds = kMaxRounds;
  for (const Sampled& one : sample) {
    const Search& s = kSearches[one.search];
    if (spans) spans->open(kKernel, static_cast<int>(one.search));
    const auto a = Clock::now();
    const RunTrace trace =
        run_schedule(s.config, kernel, search_factory(s),
                     proposals[one.search], one.schedule);
    if (spans) spans->close();
    if (spans) spans->open(kValidate, static_cast<int>(one.search));
    const ValidationReport report = validate_trace(trace);
    const auto b = Clock::now();
    if (spans) spans->close();
    run_ns.record(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                      .count());
    if (!report.ok() || !trace.agreement_ok() || !trace.validity_ok()) {
      ++invalid;
    }
    if (const auto round = trace.global_decision_round()) {
      decision_rounds.record(*round);
    }
  }

  if (!totals.error.empty()) fail(rep, totals.error);
  if (invalid > 0) {
    fail(rep, std::to_string(invalid) + " sampled runs are invalid");
  }
  const double sweep_s = seconds_between(first_call, swept);
  rep.e2e["ops_per_s"] = static_cast<double>(totals.runs) / sweep_s;
  rep.e2e["verdict_s"] = sweep_s;
  rep.e2e["setup_s"] = seconds_between(origin, first_call);
  set_latency(rep, run_ns, 1e6);
  rep.attempted = totals.runs + static_cast<long>(sample.size());
  rep.failed = (totals.error.empty() ? 0 : totals.runs) + invalid;
  set_ok_ratio(rep);

  if (traced) {
    std::vector<Span> all = main.finish();
    double kernel_ns = 0, validate_ns = 0;
    for (const Span& s : all) {
      const auto length = static_cast<double>(s.end - s.start);
      if (s.name == kKernel) kernel_ns += length;
      if (s.name == kValidate) validate_ns += length;
    }
    const auto runs =
        static_cast<double>(std::max<std::size_t>(1, sample.size()));
    auto& m = rep.layer;
    m["sim.kernel_us_per_run"] = kernel_ns / 1e3 / runs;
    m["sim.validate_us_per_run"] = validate_ns / 1e3 / runs;
    m["lb.runs"] = static_cast<double>(totals.runs);
    m["lb.explore_runs_per_s"] =
        static_cast<double>(totals.explore_runs) / totals.explore_s;
    m["lb.attack_runs_per_s"] =
        static_cast<double>(totals.attack_runs) / totals.attack_s;
    m["rsm.decide_rounds.p50"] = round_quantile(decision_rounds, 0.50);
    m["rsm.decide_rounds.p99"] = round_quantile(decision_rounds, 0.99);
    for (const auto& [key, round] : totals.worst) {
      m["core.worst_decision_round." + key] = round;
    }
    rep.spans.push_back(std::move(all));
  }
  return rep;
}

// --- the run -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out = ".";
};

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stoi(value);
        have_seconds = args.seconds >= 1 && args.seconds <= 600;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
      } else if (key == "--out") {
        args.out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return std::nullopt;
  }
  return args;
}

const std::map<std::string, LiveSpec>& live_specs() {
  static const std::map<std::string, LiveSpec> specs = {
      // Closed-loop capacity probe: every pull finds a command.  The
      // trace's length is fixed by the ack count, since every slot of a
      // round's burst carries a command.
      {"inproc-closed",
       {false, LoopMode::Closed, 4, 32, 0, 5'000, 60'000, 8'000,
        std::chrono::seconds{30}, std::chrono::microseconds{0},
        LiveOptions{}.quorum_grace, true}},
      // Poisson arrivals on a schedule over the Unix-socket fabric, at a
      // round floor of 2 ms (about eight natural rounds, so a round absorbs
      // a stalled replica thread) and about 2.6 commands per group-round.
      {"uds-sharded-open",
       {true, LoopMode::OpenPoisson, 4, 0, 2'500, 500, 5'000, 12'000,
        std::chrono::seconds{20}, std::chrono::microseconds{2'000},
        std::chrono::microseconds{4'000}, false}},
  };
  return specs;
}

/// One metric over repetitions (0 where a repetition lacks it): the
/// interquartile mean of an end-to-end metric, the median of a per-layer one.
double combine(const std::vector<Rep>& reps, const std::string& key,
               bool layer) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    const auto& m = layer ? r.layer : r.e2e;
    const auto it = m.find(key);
    v.push_back(it == m.end() ? 0.0 : it->second);
  }
  return layer ? bench::percentile_of(v, 0.5) : interquartile_mean(v);
}

void print_reps(const std::string& title, const std::vector<Rep>& reps) {
  Table table({"rep", "ops/s", "p50 ms", "p99 ms", "samples", "verdict s",
               "setup ms", "attempted", "failed"});
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    auto e2e = [&r](const char* key) {
      const auto it = r.e2e.find(key);
      return it == r.e2e.end() ? 0.0 : it->second;
    };
    table.add(static_cast<long>(i + 1), fixed(e2e("ops_per_s"), 1),
              fixed(e2e("p50_ms"), 4), fixed(e2e("p99_ms"), 4),
              static_cast<long>(r.samples), fixed(e2e("verdict_s"), 4),
              fixed(e2e("setup_s") * 1e3, 3), r.attempted, r.failed);
  }
  table.print(std::cout, title);
}

/// Where the traced time went: per span name, count, total, and self time,
/// then the mean replica-round and mean command split into their parts.
void print_self_times(const SelfTable& table, const std::vector<Rep>& traced,
                      bool live) {
  Table out({"span", "count", "total ms", "self ms", "mean self us"});
  for (int i = 0; i < kSpanNames; ++i) {
    const SelfRow& row = table[static_cast<std::size_t>(i)];
    if (row.count == 0) continue;
    out.add(kSpanName[static_cast<std::size_t>(i)], row.count,
            fixed(static_cast<double>(row.total_ns) / 1e6, 3),
            fixed(static_cast<double>(row.self_ns) / 1e6, 3),
            fixed(static_cast<double>(row.self_ns) / 1e3 /
                      static_cast<double>(row.count),
                  3));
  }
  out.print(std::cout, "self time by span (all traced repetitions)");
  if (!live) return;
  const double rounds =
      static_cast<double>(std::max(1L, table[kRound].count));
  auto per_round = [&](SpanName name) {
    return fixed(static_cast<double>(table[name].self_ns) / 1e3 / rounds, 3);
  };
  std::cout << "one replica-round, mean us: "
            << fixed(static_cast<double>(table[kRound].total_ns) / 1e3 / rounds,
                     3)
            << " = message_for_round self " << per_round(kMessage)
            << " + pulls " << per_round(kPull) << " + on_round self "
            << per_round(kOnRound) << " + commit callbacks "
            << per_round(kCommit) << " + wait (round self) "
            << per_round(kRound) << "\n";
  const double ack = combine(traced, "p50_ms", false) * 1e3;
  const double ingest = combine(traced, "client.ingest_wait_us.p50", true);
  const double pull = combine(traced, "rsm.pull_to_commit_us.p50", true);
  const double round = combine(traced, "net.round_us.p50", true);
  std::cout << "one command, p50 us: ack " << fixed(ack, 1) << " ~ pull to "
            << "first commit " << fixed(pull, 1) << " + "
            << (ingest > 0 ? "ingest wait (due to pull) " + fixed(ingest, 1)
                           : "submit to pull and ack return " +
                                 fixed(ack - pull, 1))
            << "\npull to first commit = " << fixed(pull / round, 1)
            << " rounds of p50 " << fixed(round, 1) << " us; a slot decides in "
            << fixed(combine(traced, "rsm.decide_rounds.p50", true), 0)
            << " rounds; a command whose proposal loses its slot waits for a "
               "later one\n";
}

void write_spans(const std::string& path, const Rep& rep) {
  std::ofstream out(path, std::ios::trunc);
  out << "thread\tname\tstart_ns\tend_ns\tid\tparent\n";
  for (std::size_t t = 0; t < rep.spans.size(); ++t) {
    for (const Span& s : rep.spans[t]) {
      out << t << '\t' << kSpanName[static_cast<std::size_t>(s.name)] << '\t'
          << s.start << '\t' << s.end << '\t' << s.id << '\t' << s.parent
          << '\n';
    }
  }
  if (!out) std::cerr << "perfbench: could not write " << path << "\n";
}

void write_report(const std::string& path, const Args& args,
                  const std::vector<Rep>& reps,
                  const std::map<std::string, double>& metrics) {
  bench::JsonWriter json(path);
  json.begin_object();
  json.key("workload").value(args.workload);
  json.key("seed").value(static_cast<long>(args.seed));
  json.key("trace").value(args.trace);
  json.key("repetitions").begin_array();
  for (const Rep& r : reps) {
    json.begin_object();
    for (const auto& [k, v] : r.e2e) json.key(k).value(v);
    for (const auto& [k, v] : r.layer) json.key(k).value(v);
    json.key("samples").value(static_cast<long>(r.samples));
    json.key("attempted").value(r.attempted);
    json.key("failed").value(r.failed);
    json.end_object();
  }
  json.end_array();
  json.key("metrics").begin_object();
  for (const auto& [k, v] : metrics) json.key(k).value(v);
  json.end_object();
  json.end_object();
}

int run(const Args& args) {
  const int jobs = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  const bool sweep_workload = args.workload == "lockstep-sweep";
  const auto live = live_specs().find(args.workload);
  if (!sweep_workload && live == live_specs().end()) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::cout << "perfbench: workload " << args.workload << ", seed "
            << args.seed << ", " << args.seconds << " s, trace "
            << (args.trace ? 1 : 0) << ", jobs " << jobs << ", nproc "
            << std::thread::hardware_concurrency() << "\n";

  int next_rep = 0;
  auto one = [&](bool traced) {
    const std::uint64_t seed = rep_seed(args.seed, next_rep++);
    reset_peak_rss();
    Rep rep = sweep_workload ? run_sweep(seed, jobs, traced)
                             : run_live(live->second, seed, traced);
    rep.e2e["peak_rss_mb"] = peak_rss_mib();
    return rep;
  };
  // Untraced repetitions fill the run (half of it when traced ones follow);
  // each phase runs at least three.
  const Clock::time_point begin = Clock::now();
  const auto budget = std::chrono::seconds(args.seconds);
  std::vector<Rep> plain, traced;
  const auto plain_until = begin + (args.trace ? budget / 2 : budget);
  while (plain.size() < 3 || Clock::now() < plain_until) {
    plain.push_back(one(false));
    if (!plain.back().error.empty()) break;
  }
  SelfTable self_time{};
  if (args.trace && plain.back().error.empty()) {
    while (traced.size() < 3 || Clock::now() < begin + budget) {
      // Only the last traced repetition keeps its spans, for the span dump,
      // so a repetition's peak memory holds no earlier repetition's spans.
      if (!traced.empty()) traced.back().spans.clear();
      traced.push_back(one(true));
      for (const auto& spans : traced.back().spans) tally(spans, self_time);
      if (!traced.back().error.empty()) break;
    }
  }

  long attempted = 0, failed = 0;
  std::string error;
  for (const auto* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
      if (error.empty()) error = r.error;
    }
  }
  print_reps("untraced repetitions", plain);
  if (!traced.empty()) print_reps("traced repetitions", traced);

  std::map<std::string, double> metrics;
  if (error.empty()) {
    for (const MetricSpec& spec : kEndToEnd) {
      metrics[spec.name] = combine(plain, spec.name, false);
    }
    std::uint64_t fewest = plain.front().samples;
    for (const Rep& r : plain) fewest = std::min(fewest, r.samples);
    std::cout << "latency samples per repetition: at least " << fewest
              << " (p99 needs 1000)\n";
  }
  if (error.empty() && args.trace) {
    metrics.clear();
    for (const MetricSpec& spec : kPerLayer) {
      metrics[spec.name] = combine(traced, spec.name, true);
    }
    if (sweep_workload || live->second.lockstep_probe) {
      // The lockstep layers: after a live workload, from one traced sweep
      // repetition; pool.speedup against the same run set on one worker.
      double rate = combine(traced, "ops_per_s", false);
      if (!sweep_workload) {
        const Rep probe =
            run_sweep(rep_seed(args.seed, next_rep++), jobs, true);
        if (error.empty()) error = probe.error;
        for (const auto& [key, value] : probe.layer) {
          if (key.rfind("rsm.", 0) != 0) metrics[key] = value;
        }
        rate = probe.e2e.at("ops_per_s");
      }
      const auto a = Clock::now();
      const SweepTotals single = sweep(sweep_proposals(args.seed), 1, nullptr);
      const double one = static_cast<double>(single.runs) /
                         seconds_between(a, Clock::now());
      if (error.empty()) error = single.error;
      metrics["pool.speedup"] = rate / one;
      std::cout << "lockstep sweep: " << fixed(rate, 1) << " runs/s at "
                << jobs << " jobs, " << fixed(one, 1)
                << " runs/s on one worker\n";
    }
    print_self_times(self_time, traced, !sweep_workload);
    Table overhead({"metric", "untraced", "traced", "traced - untraced"});
    std::vector<MetricSpec> measured(std::begin(kEndToEnd),
                                     std::end(kEndToEnd));
    measured.push_back({"verdict_s", "s"});
    for (const MetricSpec& spec : measured) {
      const double a = combine(plain, spec.name, false);
      const double b = combine(traced, spec.name, false);
      overhead.add(std::string(spec.name) + " (" + spec.unit + ")",
                   fixed(a, 6), fixed(b, 6), fixed(b - a, 6));
    }
    overhead.print(std::cout,
                   "tracing overhead (interquartile means)");
    const std::string stem = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    write_spans(stem + ".spans.tsv", traced.back());
    std::cout << "spans of the last traced repetition: " << stem
              << ".spans.tsv\n";
  }

  if (!error.empty()) {
    std::cout << "perfbench: FAILED: " << error << "\n";
    std::cout << "@result 0 " << attempted << " " << failed << "\n";
    return 1;
  }
  write_report(args.out + "/" + args.workload + "-seed" +
                   std::to_string(args.seed) + "-trace" +
                   (args.trace ? "1" : "0") + ".json",
               args, args.trace ? traced : plain, metrics);
  const std::span<const MetricSpec> specs =
      args.trace ? std::span<const MetricSpec>(kPerLayer)
                 : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : specs) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics.at(spec.name));
    std::cout << "@metric " << spec.name << " " << buf << " " << spec.unit
              << "\n";
  }
  std::cout << "@result 1 " << attempted << " " << failed << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out <dir>]\n";
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
