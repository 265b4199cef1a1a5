#include "client/campaign.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace indulgence::client {

namespace {

/// One burst of slots per window step up to the round cap, plus slack, so
/// the log outlives any run the round cap admits.
RsmOptions derive_rsm(const CampaignConfig& config) {
  RsmOptions rsm = config.rsm;
  const Round window =
      rsm.slot_window > 0 ? rsm.slot_window : config.config.t + 3;
  const long steps = config.live.max_rounds / window + 2;
  rsm.num_slots = static_cast<int>(
      std::min<long>(steps * rsm.slot_burst, 100'000'000));
  return rsm;
}

CampaignReport finalize(
    ClientFleet& fleet, bool run_valid, bool terminated, long rounds,
    const std::vector<std::vector<const RsmReplica*>>& replicas_by_group) {
  fleet.finish();
  CampaignReport report;
  report.counts = fleet.counters();
  report.latency = fleet.merged_measure_histogram();
  report.warmup_latency = fleet.merged_warmup_histogram();
  report.samples = fleet.throughput_samples();
  report.measured_seconds = fleet.measured_span_seconds();
  report.offered_seconds = fleet.offered_span_seconds();
  report.commands_per_sec =
      report.measured_seconds > 0
          ? static_cast<double>(report.counts.measured_acked) /
                report.measured_seconds
          : 0.0;
  report.offered_rate =
      report.offered_seconds > 0
          ? static_cast<double>(fleet.total_offered()) /
                report.offered_seconds
          : 0.0;
  report.reached_target = fleet.target_reached();
  report.hit_deadline = fleet.hit_deadline();
  report.run_valid = run_valid;
  report.terminated = terminated;
  report.rounds = rounds;
  report.oracle = check_ingest_oracle(fleet, replicas_by_group);
  return report;
}

}  // namespace

OracleReport check_ingest_oracle(
    const ClientFleet& fleet,
    const std::vector<std::vector<const RsmReplica*>>& replicas_by_group) {
  OracleReport oracle;
  oracle.no_phantoms = !fleet.saw_phantom_commit();
  const int num_clients = fleet.options().num_clients;

  // Occurrence ledger: how often each (client, seq) appears in the logs.
  std::vector<std::vector<std::uint8_t>> occurrences(
      static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    occurrences[static_cast<std::size_t>(c)].assign(
        static_cast<std::size_t>(fleet.seqs_of(c)), 0);
  }

  for (std::size_t g = 0; g < replicas_by_group.size(); ++g) {
    const auto& replicas = replicas_by_group[g];
    std::size_t slots = 0;
    for (const RsmReplica* replica : replicas) {
      if (replica) slots = std::max(slots, replica->log().size());
    }
    for (std::size_t s = 0; s < slots; ++s) {
      // Union the slot across replicas; any disagreement is fatal.
      std::optional<Value> committed;
      for (const RsmReplica* replica : replicas) {
        if (!replica || s >= replica->log().size()) continue;
        const auto& entry = replica->log()[s];
        if (!entry) continue;
        if (!committed) {
          committed = *entry;
        } else if (*committed != *entry) {
          oracle.agreement = false;
        }
      }
      if (!committed) continue;
      if (is_rsm_noop(*committed)) {
        ++oracle.noop_commits;
        continue;
      }
      const auto id = decode_command(*committed, num_clients);
      if (!id || id->seq < 0 || id->seq >= fleet.seqs_of(id->client) ||
          fleet.state_of(id->client, id->seq) == CommandState::Shed) {
        oracle.committed_all_submitted = false;  // the log invented this
        continue;
      }
      if (fleet.num_groups() > 1 &&
          fleet.group_of(*committed) != static_cast<GroupId>(g)) {
        oracle.routed_correctly = false;
      }
      auto& count = occurrences[static_cast<std::size_t>(id->client)]
                               [static_cast<std::size_t>(id->seq)];
      if (count < 255) ++count;
      if (count == 1) {
        ++oracle.committed_commands;
      } else {
        oracle.no_duplicates = false;
      }
    }
  }

  for (int c = 0; c < num_clients; ++c) {
    const long seqs = fleet.seqs_of(c);
    for (long seq = 0; seq < seqs; ++seq) {
      const CommandState state = fleet.state_of(c, seq);
      const std::uint8_t seen =
          occurrences[static_cast<std::size_t>(c)]
                     [static_cast<std::size_t>(seq)];
      if (state == CommandState::Acked && seen == 0) {
        oracle.acked_all_committed = false;  // acked but lost
      }
      if (state == CommandState::AckedLate) {
        ++oracle.late_committed;
        if (seen == 0) oracle.acked_all_committed = false;
      }
    }
  }
  return oracle;
}

CampaignReport run_campaign(const CampaignConfig& config,
                            const WorkloadOptions& workload) {
  if (!config.slot_factory) {
    throw std::invalid_argument("run_campaign: slot_factory is required");
  }
  const bool sharded = config.target == CampaignTarget::Sharded;
  const int num_groups = sharded ? config.num_groups : 1;
  ClientFleet fleet(workload, num_groups, config.config.n);
  const auto factory_for = sharded_rsm_ingest_factory(
      config.slot_factory,
      [&fleet](GroupId group, ProcessId pid) {
        return fleet.source_for(group, pid);
      },
      [&fleet](GroupId group, ProcessId pid) {
        return fleet.commit_for(group, pid);
      },
      derive_rsm(config));
  const auto start = [&fleet](std::chrono::steady_clock::time_point epoch) {
    fleet.start(epoch);
  };
  const std::vector<Value> noops(static_cast<std::size_t>(config.config.n),
                                 kNoOpCommand);

  // The in-process runtime owns its replicas, so it lives as long as the
  // loop below reads them; its one group's trace is result.groups[0].
  std::optional<LiveRuntime> runtime;
  ShardedResult result;
  if (sharded) {
    ShardedOptions options;
    options.num_nodes = config.num_nodes;
    options.num_groups = num_groups;
    options.config = config.config;
    options.live = config.live;
    options.kind = config.socket_kind;
    options.socket = config.socket;
    options.done = fleet.done_predicate();
    options.on_start = start;
    result = run_sharded(options, factory_for,
                         [&noops](GroupId) { return noops; });
  } else {
    runtime.emplace(config.config, config.live);
    runtime->set_done_predicate(fleet.done_predicate());
    runtime->set_start_hook(start);
    result.groups[0].result = runtime->run(factory_for(0), noops);
  }

  std::vector<std::vector<const RsmReplica*>> by_group;
  bool valid = true;
  bool terminated = true;
  long rounds = 0;
  for (const auto& [group, outcome] : result.groups) {
    auto& replicas = by_group.emplace_back();
    for (const auto& algorithm :
         runtime ? runtime->algorithms() : outcome.algorithms) {
      replicas.push_back(dynamic_cast<const RsmReplica*>(algorithm.get()));
    }
    valid = valid && outcome.result.validation.ok();
    terminated = terminated && outcome.result.trace.terminated();
    rounds = std::max<long>(rounds, outcome.result.trace.rounds_executed());
  }
  return finalize(fleet, valid, terminated, rounds, by_group);
}

}  // namespace indulgence::client
