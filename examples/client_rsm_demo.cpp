// Client workload campaigns against the indulgent RSM, end to end: a
// ClientFleet submits commands through the pull-based ingest API, the
// replicas commit them, and the commit callbacks close the loop back into
// per-request latency histograms.
//
//   $ ./client_rsm_demo
//
// Four campaigns, all small enough to finish in seconds:
//   1. in-process, closed loop (4 clients x 4 outstanding)
//   2. in-process, open loop (seeded Poisson arrivals, shed accounting)
//   3. socket transport (Unix-domain): one sharded group over 3 nodes,
//      closed loop
//   4. sharded (4 groups x 3 replicas), closed loop with key-hash routing
//
// Every campaign still merges its trace and re-checks it with the
// unchanged Validator, and then the ingest oracle re-reads the committed
// logs: the committed values must be exactly the set of acknowledged
// client commands — no loss, no duplication, nothing invented, and (for
// the sharded run) every command in its key-hash group.

#include <iostream>
#include <string>

#include "client/campaign.hpp"
#include "common/table.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "net/synchronizer.hpp"

namespace {

using namespace indulgence;
using namespace indulgence::client;

/// --sync KIND: the round synchronizer every campaign runs (the campaign
/// controller simply carries it inside CampaignConfig::live).
SyncKind g_sync = SyncKind::Lockstep;

AlgorithmFactory slot_factory() {
  At2Options ff;
  ff.failure_free_opt = true;
  return at2_factory(hurfin_raynal_factory(), ff);
}

CampaignConfig base_config(CampaignTarget target) {
  CampaignConfig config;
  config.target = target;
  config.config = SystemConfig{3, 1};
  config.slot_factory = slot_factory();
  config.rsm.slot_window = 1;
  config.rsm.slot_burst = 8;
  config.rsm.decide_retention = 8;
  config.live.max_rounds = 6000;
  config.live.seed = 7;
  config.live.synchronizer = g_sync;
  return config;
}

WorkloadOptions closed_workload(long measure) {
  WorkloadOptions w;
  w.mode = LoopMode::Closed;
  w.num_clients = 4;
  w.outstanding = 4;
  w.warmup_commands = 100;
  w.measure_commands = measure;
  w.deadline = std::chrono::microseconds{20'000'000};
  w.seed = 11;
  return w;
}

struct Row {
  std::string name;
  CampaignReport report;
  bool require_target = true;
};

bool row_ok(const Row& row) {
  const CampaignReport& r = row.report;
  return r.oracle.ok() && r.run_valid && r.terminated &&
         (!row.require_target || r.reached_target);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sync" && i + 1 < argc) {
      const auto kind = parse_sync_kind(argv[++i]);
      if (!kind) {
        std::cerr << "client_rsm_demo: --sync must be lockstep, pacemaker, "
                     "or faststep\n";
        return 2;
      }
      g_sync = *kind;
    } else {
      std::cerr << "usage: client_rsm_demo [--sync lockstep|pacemaker|"
                   "faststep]\n";
      return 2;
    }
  }

  std::cout << "Client workload campaigns over the indulgent RSM"
            << (g_sync != SyncKind::Lockstep
                    ? std::string(" (sync=") + to_string(g_sync) + ")"
                    : "")
            << "\n(every run: trace merged + validated, committed logs "
               "cross-checked against the fleet's books)\n\n";

  std::vector<Row> rows;

  {
    CampaignConfig config = base_config(CampaignTarget::InProcess);
    rows.push_back({"in-process closed",
                    run_campaign(config, closed_workload(1000))});
  }
  {
    CampaignConfig config = base_config(CampaignTarget::InProcess);
    WorkloadOptions w = closed_workload(600);
    w.mode = LoopMode::OpenPoisson;
    w.target_rate_per_sec = 1500.0;
    w.pending_window = 64;
    rows.push_back({"in-process open-poisson", run_campaign(config, w),
                    /*require_target=*/false});
  }
  {
    CampaignConfig config = base_config(CampaignTarget::Sharded);
    config.num_groups = 1;
    config.num_nodes = config.config.n;
    config.socket_kind = SocketAddress::Kind::Unix;
    config.socket.seed = 23;
    rows.push_back({"socket-uds closed",
                    run_campaign(config, closed_workload(400))});
  }
  {
    CampaignConfig config = base_config(CampaignTarget::Sharded);
    config.num_groups = 4;
    config.num_nodes = 3;
    rows.push_back({"sharded-4g closed",
                    run_campaign(config, closed_workload(600))});
  }

  Table table({"campaign", "acked", "shed", "cmd/s", "p50 us", "p99 us",
               "rounds", "oracle", "valid"});
  bool ok = true;
  for (const Row& row : rows) {
    const CampaignReport& r = row.report;
    table.add(row.name, r.counts.acked, r.counts.shed,
              static_cast<long>(r.commands_per_sec),
              r.latency.quantile(0.50), r.latency.quantile(0.99), r.rounds,
              r.oracle.ok() ? "yes" : "NO", r.run_valid ? "yes" : "NO");
    if (!row_ok(row)) {
      std::cerr << row.name << ": FAILED (oracle "
                << (r.oracle.ok() ? "ok" : "VIOLATED") << ", valid "
                << r.run_valid << ", terminated " << r.terminated
                << ", reached " << r.reached_target << ", acked "
                << r.counts.acked << ")\n";
      ok = false;
    }
  }
  table.print(std::cout, "client campaigns (latency = client-to-commit)");

  std::cout << (ok ? "\nOK: every ack backed by the log, every log entry "
                     "a real command.\n"
                   : "\nFAILED — see above.\n");
  return ok ? 0 : 1;
}
