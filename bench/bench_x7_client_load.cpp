// X7 — client workload campaigns over the live RSM: closed-loop and
// open-loop fleets driving the in-process runtime through the pull-based
// ingest API, client-to-commit latency into mergeable log-bucketed
// histograms, and one sustained million-command campaign.
//
// The grid sweeps n in {3,5} x slot burst in {1,4} x loop mode
// (closed / open-Poisson at two offered rates / open-bursty), clean and
// under chaos (late GST with slow pre-GST links; one cell crashes a
// replica mid-run and leans on the abandon path).  Every cell still
// merges its trace and re-checks it with the unchanged Validator, then
// the ingest oracle re-reads the committed logs: committed values must be
// exactly the set of acknowledged client commands — no loss, no
// duplication, nothing invented.
//
// Gates (cell-dependent, all in the table):
//   * every cell:      oracle ok, trace validator-clean, armed-stop exit
//   * closed loop:     ack target reached; clean cells also abandon nothing
//   * open loop clean: measured offered rate within 10% of the target
//                      (arrivals including shed, so the gate is about the
//                      arrival process, not the service capacity)
//   * million cell:    >= 10^6 acked commands, zero lost or duplicated
//
// stdout is the deterministic verdict table (configs and booleans only);
// latencies, rates, and wall-clock go to stderr and into the persisted
// BENCH_x7_client.json artifact at the repository root.

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "client/campaign.hpp"
#include "common/table.hpp"

namespace {

using namespace indulgence;
using namespace indulgence::client;

struct CellSpec {
  std::string name;
  int n = 3;
  int burst = 4;
  LoopMode mode = LoopMode::Closed;
  double rate = 0;  ///< aggregate offered rate (open loop only)
  bool chaos = false;
  bool crash = false;  ///< chaos + crash replica 0 mid-run
  long warmup = 200;
  long measure = 1500;
  int clients = 8;
  int outstanding = 4;
};

/// Every grid cell's wall cap.  The round cap follows from it at a round
/// rate far above what these cells reach (under 10,000 rounds/s on a
/// 4-vCPU x86-64 VM), so the deadline, not a round budget sized to one
/// host's speed, stops a stalled cell: the open-loop cells have no round
/// floor and run as many rounds as the host allows.
constexpr std::chrono::seconds kCellDeadline{40};
constexpr Round kRoundRateCeiling = 25'000;  ///< rounds per second

const char* mode_name(LoopMode mode) {
  switch (mode) {
    case LoopMode::Closed: return "closed";
    case LoopMode::OpenPoisson: return "open-poisson";
    case LoopMode::OpenBursty: return "open-bursty";
  }
  return "?";
}

CampaignReport run_cell(const CellSpec& spec, std::uint64_t seed) {
  CampaignConfig config;
  config.target = CampaignTarget::InProcess;
  config.config = SystemConfig{spec.n, (spec.n - 1) / 2};
  At2Options ff;
  ff.failure_free_opt = true;
  config.slot_factory = at2_factory(hurfin_raynal_factory(), ff);
  config.rsm.slot_window = 1;
  config.rsm.slot_burst = spec.burst;
  config.rsm.decide_retention = 8;
  config.live.max_rounds =
      static_cast<Round>(kCellDeadline.count()) * kRoundRateCeiling;
  config.live.seed = seed;
  if (spec.chaos) {
    // Late stabilization: 3 ms of slow, jittery pre-GST links — the
    // indulgent slow path, paid for in rounds, not in safety.
    config.live.gst = std::chrono::microseconds{3'000};
    config.live.pre_gst.floor = std::chrono::microseconds{200};
    config.live.pre_gst.jitter = std::chrono::microseconds{600};
  }
  if (spec.crash) {
    config.live.crashes.push_back(
        CrashInjection{0, 6, /*before_send=*/false});
  }

  WorkloadOptions w;
  w.mode = spec.mode;
  w.num_clients = spec.clients;
  w.outstanding = spec.outstanding;
  w.target_rate_per_sec = spec.rate;
  w.pending_window = 64;
  w.warmup_commands = spec.warmup;
  w.measure_commands = spec.measure;
  w.deadline = kCellDeadline;
  // A dead home replica never proposes its queued commands; the abandon
  // path (never resubmission) is what keeps the closed loop moving.
  if (spec.crash) w.ack_timeout = std::chrono::microseconds{250'000};
  w.seed = seed * 31 + 7;
  return run_campaign(config, w);
}

bool rate_gate(const CellSpec& spec, const CampaignReport& r) {
  if (spec.mode == LoopMode::Closed || spec.chaos) return true;
  if (spec.rate <= 0 || r.offered_rate <= 0) return false;
  return std::abs(r.offered_rate - spec.rate) / spec.rate <= 0.10;
}

bool cell_gates(const CellSpec& spec, const CampaignReport& r) {
  bool ok = r.oracle.ok() && r.run_valid && r.terminated;
  if (spec.mode == LoopMode::Closed) {
    ok = ok && r.reached_target;
    if (!spec.chaos) ok = ok && r.counts.abandoned == 0;
  } else if (!spec.chaos) {
    ok = ok && r.reached_target;
  }
  return ok && rate_gate(spec, r);
}

void json_cell(bench::JsonWriter& json, const CellSpec& spec,
               const CampaignReport& r, bool gates) {
  json.begin_object();
  json.key("name").value(spec.name);
  json.key("n").value(spec.n);
  json.key("burst").value(spec.burst);
  json.key("mode").value(mode_name(spec.mode));
  json.key("chaos").value(spec.chaos);
  json.key("rate_target").value(spec.rate);
  json.key("acked").value(r.counts.acked);
  json.key("submitted").value(r.counts.submitted);
  json.key("shed").value(r.counts.shed);
  json.key("abandoned").value(r.counts.abandoned);
  json.key("late_acks").value(r.counts.late_acks);
  json.key("noop_commits").value(r.oracle.noop_commits);
  json.key("measured_seconds").value(r.measured_seconds);
  json.key("commands_per_sec").value(r.commands_per_sec);
  json.key("offered_rate").value(r.offered_rate);
  json.key("p50_us").value(r.latency.quantile(0.50));
  json.key("p90_us").value(r.latency.quantile(0.90));
  json.key("p99_us").value(r.latency.quantile(0.99));
  json.key("p999_us").value(r.latency.quantile(0.999));
  json.key("max_us").value(r.latency.max());
  json.key("rounds").value(r.rounds);
  json.key("oracle_ok").value(r.oracle.ok());
  json.key("run_valid").value(r.run_valid);
  json.key("terminated").value(r.terminated);
  json.key("reached").value(r.reached_target);
  json.key("gates_ok").value(gates);
  json.end_object();
}

/// The sustained campaign: a wide slot burst turns each bundle round-trip
/// into 128 commands, 32 clients keep 2048 in flight, and the fleet runs
/// until 10^6 measured acks — every one of them cross-checked against the
/// committed logs afterwards.
CellSpec million_spec() {
  CellSpec spec;
  spec.name = "million-closed";
  spec.n = 3;
  spec.burst = 128;
  spec.mode = LoopMode::Closed;
  spec.warmup = 20'000;
  spec.measure = 1'000'000;
  spec.clients = 32;
  spec.outstanding = 64;
  return spec;
}

CampaignReport run_million(const CellSpec& spec) {
  CampaignConfig config;
  config.target = CampaignTarget::InProcess;
  config.config = SystemConfig{spec.n, (spec.n - 1) / 2};
  At2Options ff;
  ff.failure_free_opt = true;
  config.slot_factory = at2_factory(hurfin_raynal_factory(), ff);
  config.rsm.slot_window = 1;
  config.rsm.slot_burst = spec.burst;
  // Tight retention: at 128 slots per round a forever-rebroadcast DECIDE
  // set would grow every bundle without bound; two rounds is enough for a
  // post-GST laggard to hear any notice it missed.
  config.rsm.decide_retention = 2;
  config.live.max_rounds = 24'000;
  config.live.seed = 4242;

  WorkloadOptions w;
  w.mode = LoopMode::Closed;
  w.num_clients = spec.clients;
  w.outstanding = spec.outstanding;
  w.warmup_commands = spec.warmup;
  w.measure_commands = spec.measure;
  w.deadline = std::chrono::microseconds{300'000'000};
  w.seed = 99;
  return run_campaign(config, w);
}

}  // namespace

int main() {
  bench::print_header(
      "X7 — client workload campaigns (closed/open loop, live RSM)",
      "Committed values are exactly the acknowledged client commands: no "
      "loss, no duplication, nothing invented — closed loop, open loop, "
      "chaos, and a million-command campaign.");

  const std::vector<CellSpec> cells = {
      {"closed-n3-b1", 3, 1, LoopMode::Closed, 0, false, false, 200, 1500},
      {"closed-n3-b4", 3, 4, LoopMode::Closed, 0, false, false, 200, 1500},
      {"closed-n5-b1", 5, 1, LoopMode::Closed, 0, false, false, 200, 1500},
      {"closed-n5-b4", 5, 4, LoopMode::Closed, 0, false, false, 200, 1500},
      {"poisson-n3-600", 3, 4, LoopMode::OpenPoisson, 600, false, false, 0,
       900},
      {"poisson-n3-2000", 3, 4, LoopMode::OpenPoisson, 2000, false, false,
       0, 2000},
      {"poisson-n5-600", 5, 4, LoopMode::OpenPoisson, 600, false, false, 0,
       900},
      {"poisson-n5-2000", 5, 4, LoopMode::OpenPoisson, 2000, false, false,
       0, 2000},
      {"bursty-n3-1200", 3, 4, LoopMode::OpenBursty, 1200, false, false, 0,
       800},
      {"chaos-closed-n3", 3, 4, LoopMode::Closed, 0, true, false, 100, 800},
      {"chaos-closed-n5", 5, 4, LoopMode::Closed, 0, true, false, 100, 800},
      {"chaos-poisson-n3", 3, 4, LoopMode::OpenPoisson, 800, true, false, 0,
       600},
      {"crash-closed-n3", 3, 4, LoopMode::Closed, 0, true, true, 0, 400, 8,
       8},
  };

  bench::Stopwatch total;
  bench::JsonWriter json(bench::artifact_path("BENCH_x7_client.json"));
  json.begin_object();
  json.key("bench").value("x7_client_load");
  json.key("cells").begin_array();

  Table table({"cell", "n", "burst", "mode", "chaos", "oracle", "valid",
               "reached", "rate<=10%", "gates"});
  bool all_ok = true;
  long total_acked = 0;
  double sample_rate = 0;  // closed-n3-b4, the baseline trajectory number

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellSpec& spec = cells[i];
    bench::Stopwatch watch;
    const CampaignReport r = run_cell(spec, 1000 + i);
    const bool gates = cell_gates(spec, r);
    all_ok = all_ok && gates;
    total_acked += r.counts.acked;
    if (spec.name == "closed-n3-b4") sample_rate = r.commands_per_sec;
    table.add(spec.name, spec.n, spec.burst, mode_name(spec.mode),
              bench::check_mark(spec.chaos), bench::check_mark(r.oracle.ok()),
              bench::check_mark(r.run_valid),
              bench::check_mark(r.reached_target),
              bench::check_mark(rate_gate(spec, r)),
              bench::check_mark(gates));
    json_cell(json, spec, r, gates);
    std::cerr << "x7 " << spec.name << ": " << r.counts.acked << " acked in "
              << watch.seconds() << " s (" << r.commands_per_sec
              << " cmd/s, p50 " << r.latency.quantile(0.50) << " us, p99 "
              << r.latency.quantile(0.99) << " us, offered "
              << r.offered_rate << "/s, rounds " << r.rounds << ")\n";
  }
  json.end_array();

  table.print(std::cout,
              "X7 grid: every cell validator-clean, every ack backed by "
              "the committed logs");

  // --- the million-command campaign --------------------------------------
  const CellSpec big = million_spec();
  bench::Stopwatch watch;
  const CampaignReport r = run_million(big);
  const bool million_gates = r.oracle.ok() && r.run_valid && r.terminated &&
                             r.reached_target &&
                             r.counts.measured_acked >= 1'000'000;
  all_ok = all_ok && million_gates;
  total_acked += r.counts.acked;

  Table million({"campaign", "target", "oracle", "valid", "reached",
                 ">=1e6 acked", "gates"});
  million.add(big.name, big.measure, bench::check_mark(r.oracle.ok()),
              bench::check_mark(r.run_valid),
              bench::check_mark(r.reached_target),
              bench::check_mark(r.counts.measured_acked >= 1'000'000),
              bench::check_mark(million_gates));
  million.print(std::cout, "X7 sustained campaign (32 clients x 64 "
                           "outstanding, slot burst 128)");

  std::cerr << "x7 million: " << r.counts.acked << " acked in "
            << watch.seconds() << " s (" << r.commands_per_sec
            << " cmd/s, p50 " << r.latency.quantile(0.50) << " us, p99 "
            << r.latency.quantile(0.99) << " us, p999 "
            << r.latency.quantile(0.999) << " us, rounds " << r.rounds
            << ", noops " << r.oracle.noop_commits << ")\n";

  json.key("million").begin_object();
  json.key("name").value(big.name);
  json.key("clients").value(big.clients);
  json.key("outstanding").value(big.outstanding);
  json.key("burst").value(big.burst);
  json.key("acked").value(r.counts.acked);
  json.key("measured_acked").value(r.counts.measured_acked);
  json.key("abandoned").value(r.counts.abandoned);
  json.key("noop_commits").value(r.oracle.noop_commits);
  json.key("committed_commands").value(r.oracle.committed_commands);
  json.key("measured_seconds").value(r.measured_seconds);
  json.key("commands_per_sec").value(r.commands_per_sec);
  json.key("p50_us").value(r.latency.quantile(0.50));
  json.key("p90_us").value(r.latency.quantile(0.90));
  json.key("p99_us").value(r.latency.quantile(0.99));
  json.key("p999_us").value(r.latency.quantile(0.999));
  json.key("max_us").value(r.latency.max());
  json.key("rounds").value(r.rounds);
  json.key("oracle_ok").value(r.oracle.ok());
  json.key("run_valid").value(r.run_valid);
  json.key("gates_ok").value(million_gates);
  json.key("throughput_samples").begin_array();
  for (long s : r.samples) json.value(s);
  json.end_array();
  json.end_object();

  json.key("total_acked").value(total_acked);
  json.key("all_gates_ok").value(all_ok);
  json.end_object();

  // Trajectory vs the previous PR's checked-in baseline (absent: skip).
  const std::string baseline = std::string(INDULGENCE_BENCH_BASELINE_DIR) +
                               "/BENCH_x7_client.pr8.json";
  const double base_rate =
      bench::scan_json_number(baseline, "commands_per_sec", 0);
  if (base_rate > 0 && sample_rate > 0) {
    std::cerr << "x7 closed-n3-b4 trajectory: " << sample_rate
              << " cmd/s now vs " << base_rate << " cmd/s at baseline ("
              << (sample_rate / base_rate) << "x)\n";
  }

  std::cerr << "x7 total: " << total_acked << " acked commands in "
            << total.seconds() << " s\n";
  std::cout << "\n"
            << (all_ok ? "OK: every campaign linearized its ingest — the "
                         "logs are exactly the acks.\n"
                       : "FAILED — see the gates columns above.\n");
  return all_ok ? 0 : 1;
}
