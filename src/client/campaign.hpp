// The campaign controller: wires a ClientFleet to one of the two RSM
// runtimes (the in-process LiveRuntime, or run_sharded over real sockets —
// one group over n nodes is the single-group socket run), drives it to an
// ack target through warmup + measure windows, and — after every run,
// successful or not — still merges the process logs and re-checks them with
// the unchanged Validator, exactly like the fixed-queue benches.
//
// Both targets take one path: one fleet with a home queue per (group,
// replica), one sharded_rsm_ingest_factory (the in-process target runs its
// group 0), the runtime, then one pass over every group's replicas and
// merged trace.  An in-process run is one group.
//
// On top of trace validation sits the end-to-end linearizable-ingest
// oracle: the committed logs, read back across replicas, must be exactly
// the set of acknowledged client commands — no loss (every acked command
// appears), no duplication (no command in two slots), nothing invented
// (every non-noop committed value decodes to a submitted command), and on
// sharded targets every command sits in its key-hash group.

#pragma once

#include <vector>

#include "client/workload.hpp"
#include "net/runtime.hpp"
#include "net/sharded_runtime.hpp"
#include "rsm/rsm.hpp"

namespace indulgence::client {

enum class CampaignTarget { InProcess, Sharded };

struct CampaignConfig {
  CampaignTarget target = CampaignTarget::InProcess;
  SystemConfig config{3, 1};  ///< per-group (n, t)
  LiveOptions live;           ///< pacing, chaos, max_rounds, seed
  AlgorithmFactory slot_factory;  ///< per-slot consensus (required)

  /// Sharded target only.
  SocketAddress::Kind socket_kind = SocketAddress::Kind::Unix;
  SocketTransportOptions socket;
  int num_groups = 8;
  int num_nodes = 3;

  /// slot_window / slot_burst / decide_retention are honored; num_slots is
  /// DERIVED from live.max_rounds (one burst per window step up to the
  /// round cap, plus slack) so the log cannot exhaust before the cap.
  RsmOptions rsm;
};

/// The committed-log ledger cross-checked against the fleet's books.
struct OracleReport {
  bool agreement = true;       ///< no two replicas disagree on a slot
  bool no_duplicates = true;   ///< no command committed in two slots
  bool acked_all_committed = true;   ///< every ack is backed by the log
  bool committed_all_submitted = true;  ///< the log invented nothing
  bool routed_correctly = true;      ///< sharded: slot's group owns the key
  bool no_phantoms = true;     ///< no callback for an unknown command
  long committed_commands = 0;  ///< distinct client commands in the logs
  long noop_commits = 0;        ///< committed empty-slot sentinels
  long late_committed = 0;      ///< committed after the client abandoned

  bool ok() const {
    return agreement && no_duplicates && acked_all_committed &&
           committed_all_submitted && routed_correctly && no_phantoms;
  }
};

struct CampaignReport {
  FleetCounters counts;
  LatencyHistogram latency;         ///< client-to-commit, measure window
  LatencyHistogram warmup_latency;  ///< warmup window
  std::vector<long> samples;        ///< acks per 250 ms bin
  double measured_seconds = 0;      ///< measure-window span
  double offered_seconds = 0;       ///< arrival span (incl. shed)
  double commands_per_sec = 0;      ///< measured acks / measured span
  double offered_rate = 0;          ///< arrivals per second (open-loop gate)
  bool reached_target = false;
  bool hit_deadline = false;
  bool run_valid = false;   ///< every merged trace passed the Validator
  bool terminated = false;  ///< armed-stop shutdown (vs round-cap abort)
  long rounds = 0;          ///< rounds executed (max over groups)
  OracleReport oracle;
};

/// Re-derives the ledger from the committed logs themselves.
/// `replicas_by_group[g]` holds group g's replicas (null entries allowed —
/// e.g. a non-RSM payload slot); call after fleet.finish().
OracleReport check_ingest_oracle(
    const ClientFleet& fleet,
    const std::vector<std::vector<const RsmReplica*>>& replicas_by_group);

/// Runs one full campaign and reports.  Throws on invalid configuration;
/// a campaign that misses its ack target still reports (reached_target
/// false) with its trace validated.
CampaignReport run_campaign(const CampaignConfig& config,
                            const WorkloadOptions& workload);

}  // namespace indulgence::client
