// X6 — sharded RSM throughput: G consensus groups over one multiplexed
// fabric (extension).
//
// The paper's price is per instance: every indulgent consensus costs
// t + 2 rounds after stabilization, and an RSM pays it per slot.  The
// standard way to buy aggregate throughput anyway is sharding — hash-
// partition the key space, run one independent group per shard — and this
// bench measures exactly that trade on the group-multiplexed socket
// transport: G sweeps 1 -> 256 (3 replicas per group over 4 node
// endpoints, all groups sharing the per-peer links), clean and under the
// seeded wire-chaos layer.  Aggregate commits/s must scale with G (the
// acceptance gate is G=64 >= 4x G=1 on loopback) because a single group
// is latency-bound — its rounds wait on quorum grace and socket round
// trips — so independent groups overlap those waits long before the
// fabric saturates.  Every cell also re-checks correctness: each group's
// merged trace through the UNCHANGED per-group validator.
//
// stdout is the deterministic correctness table; throughput, per-group
// wall percentiles, and supervisor counters go to stderr and into
// BENCH_x6_sharded.json.

#include <vector>

#include "bench_util.hpp"
#include "net/sharded_runtime.hpp"
#include "rsm/rsm.hpp"

namespace indulgence {
namespace {

constexpr int kSlots = 4;
constexpr Round kWindow = 2;
constexpr int kNodes = 4;
const SystemConfig kGroupConfig{3, 1};

struct Cell {
  int groups = 1;
  bool chaos = false;
  int burst = 1;  ///< RSM slot_burst: slots pipelined per window step
};

struct Outcome {
  bool all_valid = false;
  long commits = 0;
  double seconds = 0;
  double commits_per_sec = 0;
  double group_wall_p50_us = 0;
  double group_wall_p99_us = 0;
  SocketCounters counters;
};

Outcome run_cell(const Cell& cell) {
  ShardedOptions options;
  options.num_nodes = kNodes;
  options.num_groups = cell.groups;
  options.config = kGroupConfig;
  options.live.max_rounds = 64;
  options.live.quorum_grace = std::chrono::microseconds{400};
  // Loopback rounds close in microseconds, which is not the regime the
  // paper prices: on a real link a round costs at least one RTT.  The
  // floor emulates a ~2 ms RTT, making a single group latency-bound the
  // way a deployed one is — groups then buy throughput by overlapping
  // their waits, not by magic.
  options.live.round_floor = std::chrono::milliseconds{2};
  options.socket.seed = 4242;
  // Large cells run G x 3 driver threads (768 at G=256) on a shared CPU:
  // a supervisor or reader starved past the 150 ms peer_silence default
  // triggers a spurious redial whose reconnect can outlast the 100 ms
  // shutdown drain, surfacing as a below-quorum final round (a t-resilience
  // flag on an otherwise healthy run).  Scale both budgets to the load so
  // the bench measures throughput, not scheduler jitter.
  options.socket.peer_silence = std::chrono::seconds{1};
  options.live.drain_wait = std::chrono::milliseconds{500};
  if (cell.chaos) {
    WireChaosOptions chaos;
    chaos.seed = 0x9e3779b97f4a7c15ull;
    chaos.until = std::chrono::milliseconds{2};
    chaos.connect_fail_prob = 0.25;
    chaos.accept_close_prob = 0.15;
    chaos.reset_prob = 0.1;
    chaos.stall_prob = 0.15;
    chaos.stall = std::chrono::microseconds{500};
    chaos.short_write_prob = 0.25;
    options.socket.chaos = chaos;
  }
  options.done = [](const RoundAlgorithm& algorithm) {
    const auto* rep = dynamic_cast<const RsmReplica*>(&algorithm);
    return rep && rep->all_slots_committed();
  };

  // Every group commits kSlots commands; key i of group g is queued at
  // replica i mod n (one home replica per command, as a sharded service
  // would route client keys).
  RsmOptions rsm;
  rsm.num_slots = kSlots;
  rsm.slot_window = kWindow;
  rsm.slot_burst = cell.burst;
  At2Options ff;
  ff.failure_free_opt = true;
  const GroupFactory factory_for = sharded_rsm_factory(
      at2_factory(hurfin_raynal_factory(), ff),
      [](GroupId g, ProcessId pid) {
        std::vector<Value> mine;
        for (int i = 0; i < kSlots; ++i) {
          if (static_cast<ProcessId>(i % kGroupConfig.n) == pid) {
            mine.push_back(1000 * (g + 1) + i);
          }
        }
        return mine;
      },
      rsm);
  const GroupProposals no_proposals = [](GroupId) {
    return std::vector<Value>(static_cast<std::size_t>(kGroupConfig.n),
                              kNoOpCommand);
  };

  bench::Stopwatch watch;
  const ShardedResult result =
      run_sharded(options, factory_for, no_proposals);

  Outcome out;
  out.seconds = watch.seconds();
  out.all_valid = result.all_valid();
  out.counters = result.counters;
  std::vector<double> walls;
  for (const auto& [g, outcome] : result.groups) {
    walls.push_back(static_cast<double>(outcome.wall.count()));
    const auto* rep =
        dynamic_cast<const RsmReplica*>(outcome.algorithms[0].get());
    if (!rep) {
      out.all_valid = false;
      continue;
    }
    out.commits += rep->committed_prefix();
    if (!rep->all_slots_committed()) out.all_valid = false;
    if (!outcome.result.validation.ok() || !rep->all_slots_committed() ||
        !outcome.result.trace.terminated()) {
      // Per-group failure diagnostic: a gate on all_valid is useless if a
      // red run does not say WHICH group broke and how.
      std::fprintf(stderr,
                   "X6 group %d failed: validator_ok=%d terminated=%d "
                   "prefix=%d rounds=%d\n%s\n",
                   g, outcome.result.validation.ok(),
                   outcome.result.trace.terminated(),
                   rep->committed_prefix(),
                   outcome.result.trace.rounds_executed(),
                   outcome.result.validation.to_string().c_str());
    }
  }
  out.commits_per_sec =
      out.seconds > 0 ? static_cast<double>(out.commits) / out.seconds : 0;
  out.group_wall_p50_us = bench::percentile_of(walls, 0.50);
  out.group_wall_p99_us = bench::percentile_of(walls, 0.99);
  return out;
}

}  // namespace
}  // namespace indulgence

int main() {
  using namespace indulgence;
  bench::print_header(
      "X6 — sharded RSM: aggregate commits/s vs group count over one "
      "multiplexed fabric",
      "G groups x 3 replicas over 4 node endpoints; every group's merged "
      "trace re-validated");

  std::vector<Cell> cells;
  for (int groups : {1, 4, 16, 64, 256}) {
    cells.push_back({groups, false});
    cells.push_back({groups, true});
  }

  bool ok = true;
  long runs = 0;
  double clean_g1_rate = 0;
  double clean_g64_rate = 0;
  bench::Stopwatch watch;
  bench::JsonWriter json(bench::artifact_path("BENCH_x6_sharded.json"));
  json.begin_object();
  json.key("bench").value("x6_sharded_rsm");
  json.key("nodes").value(kNodes);
  json.key("group_n").value(kGroupConfig.n);
  json.key("group_t").value(kGroupConfig.t);
  json.key("slots_per_group").value(kSlots);
  json.key("sweep").begin_array();

  Table table({"groups", "wire", "all groups valid", "all slots committed"});
  for (const Cell& cell : cells) {
    const Outcome out = run_cell(cell);
    ++runs;
    ok &= out.all_valid;
    const bool committed =
        out.commits == static_cast<long>(cell.groups) * kSlots;
    ok &= committed;
    if (!cell.chaos && cell.groups == 1) clean_g1_rate = out.commits_per_sec;
    if (!cell.chaos && cell.groups == 64) {
      clean_g64_rate = out.commits_per_sec;
    }
    table.add(cell.groups, cell.chaos ? "chaos" : "clean",
              bench::check_mark(out.all_valid), bench::check_mark(committed));

    const SocketCounters& c = out.counters;
    std::fprintf(
        stderr,
        "X6 G=%3d %-5s %4ld commits in %6.3f s (%7.0f commits/s), group "
        "wall p50 %8.0f us p99 %8.0f us | %ld reconnects, %ld resends, %ld "
        "demux drops, %ld injected faults\n",
        cell.groups, cell.chaos ? "chaos" : "clean", out.commits,
        out.seconds, out.commits_per_sec, out.group_wall_p50_us,
        out.group_wall_p99_us, c.reconnects, c.envelopes_resent,
        c.demux_drops,
        c.injected_faults());

    json.begin_object();
    json.key("groups").value(cell.groups);
    json.key("chaos").value(cell.chaos);
    json.key("all_valid").value(out.all_valid);
    json.key("commits").value(out.commits);
    json.key("seconds").value(out.seconds);
    json.key("aggregate_commits_per_sec").value(out.commits_per_sec);
    json.key("group_wall_p50_us").value(out.group_wall_p50_us);
    json.key("group_wall_p99_us").value(out.group_wall_p99_us);
    json.key("counters").begin_object();
    json.key("reconnects").value(c.reconnects);
    json.key("envelopes_sent").value(c.envelopes_sent);
    json.key("envelopes_resent").value(c.envelopes_resent);
    json.key("flush_syscalls").value(c.flush_syscalls);
    json.key("duplicates_dropped").value(c.duplicates_dropped);
    json.key("demux_drops").value(c.demux_drops);
    json.key("peer_timeouts").value(c.peer_timeouts);
    json.key("injected_faults").value(c.injected_faults());
    json.end_object();
    json.end_object();
  }
  json.end_array();

  // The acceptance gate: sharding must buy real aggregate throughput.
  // A single group is latency-bound, so 64 groups overlapping their waits
  // clear 4x with a wide margin on any machine; a miss means the fabric
  // serialized the groups (head-of-line blocking) and is a real bug.
  const double speedup =
      clean_g1_rate > 0 ? clean_g64_rate / clean_g1_rate : 0;
  const bool scaling_ok = speedup >= 4.0;
  ok &= scaling_ok;
  json.key("clean_g1_commits_per_sec").value(clean_g1_rate);
  json.key("clean_g64_commits_per_sec").value(clean_g64_rate);
  json.key("speedup_g64_over_g1").value(speedup);
  json.key("scaling_target").value(4.0);
  json.key("scaling_ok").value(scaling_ok);

  // Deeper slot pipelining: the same G=64 clean cell with slot_burst =
  // kSlots opens every slot at round 1, so one command log costs ~1 window
  // of rounds instead of kSlots windows.  At a fixed 2 ms round floor the
  // log finishes in fewer rounds, which is visible as commits/s.
  const int pipeline_burst = kSlots;
  const Cell pipelined_cell{64, false, pipeline_burst};
  const Outcome pipelined = run_cell(pipelined_cell);
  ++runs;
  ok &= pipelined.all_valid;
  ok &= pipelined.commits == 64L * kSlots;
  const double pipeline_speedup = clean_g64_rate > 0
                                      ? pipelined.commits_per_sec /
                                            clean_g64_rate
                                      : 0;
  std::fprintf(stderr,
               "X6 pipelined G=64 burst=%d: %7.0f commits/s (%.2fx over "
               "burst=1)\n",
               pipeline_burst, pipelined.commits_per_sec, pipeline_speedup);
  json.key("pipeline_burst").value(pipeline_burst);
  json.key("pipelined_g64_commits_per_sec").value(pipelined.commits_per_sec);
  json.key("pipelined_all_valid").value(pipelined.all_valid);
  json.key("pipeline_speedup").value(pipeline_speedup);

  // Before/after trajectory: compare against the previous PR's checked-in
  // artifact.  Reported, not gated — absolute rates are machine-dependent.
  const std::string baseline_path =
      std::string(INDULGENCE_BENCH_BASELINE_DIR) +
      "/BENCH_x6_sharded.pr6.json";
  const double base_g64 = bench::scan_json_number(
      baseline_path, "clean_g64_commits_per_sec");
  json.key("baseline").begin_object();
  json.key("baseline_available").value(base_g64 > 0);
  json.key("baseline_clean_g64_commits_per_sec").value(base_g64);
  json.key("clean_g64_vs_baseline")
      .value(base_g64 > 0 ? clean_g64_rate / base_g64 : 0.0);
  json.end_object();
  if (base_g64 > 0) {
    std::fprintf(stderr,
                 "X6 before/after: clean G=64 %.0f commits/s vs PR6 "
                 "baseline %.0f (%.2fx)\n",
                 clean_g64_rate, base_g64, clean_g64_rate / base_g64);
  }
  json.end_object();

  table.print(std::cout,
              "X6: 4-command logs, A_{t+2}+ff slots, window 2, shared "
              "links, per-group demux");
  std::cout << "aggregate scaling G=64 vs G=1 (clean) >= 4x: "
            << bench::check_mark(scaling_ok) << "\n";
  std::fprintf(stderr, "X6 speedup G=64/G=1 (clean): %.1fx\n", speedup);
  std::cout
      << "Reading: the t+2-round price is per group, so a sharded service\n"
         "pays it G times in parallel over ONE fabric: per-group latency\n"
         "holds roughly flat while aggregate commits/s scales with G,\n"
         "until the shared links saturate.  Chaos burns the supervisors'\n"
         "counters, never the verdicts.\n\n";
  std::cout << (ok ? "X6 OK.\n" : "X6 FAILED.\n");
  watch.report("X6", runs, 1);
  return ok ? 0 : 1;
}
