// A replicated command log on top of the paper's consensus: five replicas
// of a tiny key-value store commit a stream of client writes through
// pipelined A_{t+2} instances, while one replica crashes and the network
// goes through an asynchronous spell.  Every surviving replica ends with
// the identical log.
//
//   $ ./replicated_log

#include <iostream>
#include <optional>

#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "rsm/rsm.hpp"
#include "sim/harness.hpp"

namespace {

using namespace indulgence;

// Commands are writes encoded as key * 1000 + value.
Value put(int key, int value) { return key * 1000 + value; }

std::string render(Value cmd) {
  if (cmd >= 1000) {
    return "put(k" + std::to_string(cmd / 1000) + "=" +
           std::to_string(cmd % 1000) + ")";
  }
  if (cmd > std::numeric_limits<Value>::max() - 8) return "no-op";
  return "cmd(" + std::to_string(cmd) + ")";
}

}  // namespace

int main() {
  const SystemConfig config{.n = 5, .t = 2};

  // Client traffic: each replica fronts a different client.
  auto commands_for = [](ProcessId id) -> std::vector<Value> {
    switch (id) {
      case 0: return {put(1, 10), put(2, 20)};
      case 1: return {put(3, 30)};
      case 2: return {put(1, 11), put(4, 40)};
      case 3: return {put(5, 50)};
      default: return {put(6, 60), put(2, 21)};
    }
  };

  RsmOptions rsm_options;
  rsm_options.num_slots = 8;
  rsm_options.slot_window = 2;  // a new consensus instance every 2 rounds

  At2Options at2_options;
  at2_options.failure_free_opt = true;  // 2-round commits when all is well

  const AlgorithmFactory factory =
      rsm_factory(at2_factory(hurfin_raynal_factory(), at2_options),
                  commands_for, rsm_options);

  // The environment: replica p3 crashes at round 5, and p0's network is
  // slow (messages delayed) between rounds 6 and 9.
  ScheduleBuilder adversary(config);
  adversary.crash(3, 5);
  for (Round k = 6; k <= 9; ++k) {
    for (ProcessId r = 1; r < config.n; ++r) adversary.delay(0, r, k, 10);
  }
  adversary.gst(10);

  KernelOptions options;
  options.model = Model::ES;
  options.max_rounds = 64;
  options.stop_on_global_decision = false;

  AlgorithmInstances instances;
  const RunResult result =
      run_and_check(config, options, factory, distinct_proposals(config.n),
                    adversary.build(), &instances);
  if (!result.validation.ok()) {
    std::cout << result.validation.to_string();
    return 1;
  }

  std::cout << "committed log (slot: command @ commit round):\n";
  const auto* reference =
      dynamic_cast<const RsmReplica*>(instances[1].get());
  // The log covers only the slots a replica started, so read past its end
  // as uncommitted.
  const auto entry = [](const RsmReplica& replica, int slot) {
    const auto& log = replica.log();
    return static_cast<std::size_t>(slot) < log.size()
               ? log[static_cast<std::size_t>(slot)]
               : std::nullopt;
  };
  for (int slot = 0; slot < rsm_options.num_slots; ++slot) {
    std::cout << "  slot " << slot << ": ";
    if (const std::optional<Value> v = entry(*reference, slot)) {
      std::cout << render(*v) << " @ round " << reference->commit_round(slot)
                << "\n";
    } else {
      std::cout << "(uncommitted)\n";
    }
  }

  std::cout << "\nper-replica agreement:\n";
  bool agree = true;
  for (ProcessId pid : result.trace.correct()) {
    const auto* replica = dynamic_cast<const RsmReplica*>(instances[pid].get());
    bool same = replica->all_slots_committed();
    for (int slot = 0; slot < rsm_options.num_slots && same; ++slot) {
      same = entry(*replica, slot) == entry(*reference, slot);
    }
    agree &= same;
    std::cout << "  p" << pid << ": "
              << (same ? "identical log" : "DIVERGED") << "\n";
  }
  std::cout << "  p3: crashed at round 5 (its pending writes were retried "
               "or dropped)\n\n";

  std::cout << (agree ? "All surviving replicas hold the same log despite a "
                        "crash and an\nasynchronous spell — consensus doing "
                        "its job.\n"
                      : "LOG DIVERGENCE — bug!\n");
  return agree ? 0 : 1;
}
