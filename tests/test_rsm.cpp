// The replicated state machine built on the consensus API: log agreement,
// pipelining, crash and asynchrony tolerance, command retry.

#include <gtest/gtest.h>

#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "rsm/rsm.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

KernelOptions rsm_options(Round rounds) {
  KernelOptions o;
  o.model = Model::ES;
  o.max_rounds = rounds;
  o.stop_on_global_decision = false;  // the RSM never "decides"
  return o;
}

AlgorithmFactory at2_slots(At2Options opt = {}) {
  return at2_factory(hurfin_raynal_factory(), opt);
}

/// Each replica queues commands 100*(id+1) + {0,1,2,...}.
std::function<std::vector<Value>(ProcessId)> command_streams(int per_replica) {
  return [per_replica](ProcessId id) {
    std::vector<Value> cmds;
    for (int i = 0; i < per_replica; ++i) cmds.push_back(100 * (id + 1) + i);
    return cmds;
  };
}

struct RsmRun {
  RunResult result;
  std::vector<const RsmReplica*> replicas;
  AlgorithmInstances instances;
};

RsmRun run_rsm(const SystemConfig& cfg, const AlgorithmFactory& factory,
               Adversary& adversary, Round rounds) {
  RsmRun out{run_and_check(cfg, rsm_options(rounds), factory,
                           distinct_proposals(cfg.n), adversary,
                           &out.instances),
             {}, {}};
  for (const auto& instance : out.instances) {
    out.replicas.push_back(dynamic_cast<const RsmReplica*>(instance.get()));
  }
  return out;
}

RsmRun run_rsm(const SystemConfig& cfg, const AlgorithmFactory& factory,
               const RunSchedule& schedule, Round rounds) {
  ScheduleAdversary adversary(schedule);
  return run_rsm(cfg, factory, adversary, rounds);
}

TEST(Rsm, FailureFreeLogsAgreeAndFill) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmOptions opt;
  opt.num_slots = 6;
  const AlgorithmFactory factory =
      rsm_factory(at2_slots(), command_streams(3), opt);
  RsmRun run = run_rsm(cfg, factory, failure_free_schedule(cfg), 64);
  ASSERT_TRUE(run.result.validation.ok());
  for (const RsmReplica* r : run.replicas) {
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->all_slots_committed());
  }
  for (int slot = 0; slot < opt.num_slots; ++slot) {
    for (const RsmReplica* r : run.replicas) {
      EXPECT_EQ(r->log()[slot], run.replicas[0]->log()[slot])
          << "log agreement broken at slot " << slot;
    }
  }
}

TEST(Rsm, CommittedCommandsWereActuallyQueued) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmOptions opt;
  opt.num_slots = 5;
  auto streams = command_streams(3);
  const AlgorithmFactory factory = rsm_factory(at2_slots(), streams, opt);
  RsmRun run = run_rsm(cfg, factory, failure_free_schedule(cfg), 64);
  std::set<Value> legal;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    for (Value v : streams(id)) legal.insert(v);
    legal.insert(id);  // the kernel proposal joins the queue front
  }
  for (const RsmReplica* r : run.replicas) {
    for (const auto& entry : r->log()) {
      ASSERT_TRUE(entry.has_value());
      // Either a queued command or a no-op sentinel.
      EXPECT_TRUE(legal.count(*entry) ||
                  *entry > std::numeric_limits<Value>::max() - cfg.n)
          << "foreign value " << *entry << " committed";
    }
  }
}

TEST(Rsm, PipeliningWithWindowOneCommitsEveryRound) {
  // With window = 1 and the ff-optimized A_{t+2}, a failure-free
  // synchronous run commits slot s at round s + 2: one command per round
  // after the two-round warm-up.
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmOptions opt;
  opt.num_slots = 10;
  opt.slot_window = 1;
  At2Options ff;
  ff.failure_free_opt = true;
  const AlgorithmFactory factory =
      rsm_factory(at2_slots(ff), command_streams(4), opt);
  RsmRun run = run_rsm(cfg, factory, failure_free_schedule(cfg), 32);
  for (const RsmReplica* r : run.replicas) {
    ASSERT_TRUE(r->all_slots_committed());
    for (int slot = 0; slot < opt.num_slots; ++slot) {
      EXPECT_EQ(r->commit_round(slot),
                slot + price(PriceRow::At2FailureFree, cfg, 0).round)
          << "slot " << slot << " did not pipeline";
    }
  }
}

TEST(Rsm, SurvivesCrashAndStillAgrees) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmOptions opt;
  opt.num_slots = 5;
  const AlgorithmFactory factory =
      rsm_factory(at2_slots(), command_streams(3), opt);
  ScheduleBuilder b(cfg);
  b.crash(0, 2);  // p0 dies early; its queued commands may never commit
  b.crash(3, 7, /*before_send=*/true);
  RsmRun run = run_rsm(cfg, factory, b.build(), 64);
  ASSERT_TRUE(run.result.validation.ok());
  const ProcessSet correct = run.result.trace.correct();
  const RsmReplica* reference = nullptr;
  for (ProcessId pid : correct) {
    const RsmReplica* r = run.replicas[pid];
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->all_slots_committed()) << "replica p" << pid;
    if (!reference) reference = r;
    for (int slot = 0; slot < opt.num_slots; ++slot) {
      EXPECT_EQ(r->log()[slot], reference->log()[slot]);
    }
  }
}

TEST(Rsm, SurvivesRandomAsynchrony) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmOptions opt;
  opt.num_slots = 4;
  const AlgorithmFactory factory =
      rsm_factory(at2_slots(), command_streams(2), opt);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomEsOptions aopt;
    aopt.gst = 1 + static_cast<Round>(seed % 8);
    RandomEsAdversary adversary(cfg, aopt, seed * 97);
    RsmRun run = run_rsm(cfg, factory, adversary, 128);
    ASSERT_TRUE(run.result.validation.ok())
        << "seed " << seed << "\n" << run.result.validation.to_string();
    const ProcessSet correct = run.result.trace.correct();
    const RsmReplica* reference = run.replicas[correct.min()];
    for (ProcessId pid : correct) {
      const RsmReplica* r = run.replicas[pid];
      ASSERT_TRUE(r->all_slots_committed())
          << "seed " << seed << " replica p" << pid;
      for (int slot = 0; slot < opt.num_slots; ++slot) {
        ASSERT_EQ(r->log()[slot], reference->log()[slot])
            << "seed " << seed << " slot " << slot;
      }
    }
  }
}

TEST(Rsm, LosingProposerRetriesItsCommand) {
  // p4's command loses early slots to lower values but must eventually
  // commit once other replicas run out of fresh commands.
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmOptions opt;
  opt.num_slots = 8;
  auto streams = [](ProcessId id) -> std::vector<Value> {
    if (id == 4) return {999};
    return {};  // others only have the kernel-proposal command
  };
  const AlgorithmFactory factory = rsm_factory(at2_slots(), streams, opt);
  RsmRun run = run_rsm(cfg, factory, failure_free_schedule(cfg), 80);
  bool committed_999 = false;
  for (const auto& entry : run.replicas[0]->log()) {
    if (entry && *entry == 999) committed_999 = true;
  }
  EXPECT_TRUE(committed_999) << "p4's command never committed";
}

TEST(Rsm, RejectsReservedCommandValues) {
  const SystemConfig cfg{.n = 5, .t = 2};
  EXPECT_THROW(RsmReplica(0, cfg, at2_slots(), {kNoOpCommand}, {}),
               std::invalid_argument);
  EXPECT_THROW(RsmReplica(0, cfg, at2_slots(), {kBottom}, {}),
               std::invalid_argument);
  RsmOptions bad;
  bad.num_slots = 0;
  EXPECT_THROW(RsmReplica(0, cfg, at2_slots(), {}, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace indulgence
