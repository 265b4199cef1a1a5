// RSM slot-window sweep: every pipelining depth must preserve log
// agreement and completeness, across slot algorithms and adversaries.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "consensus/hurfin_raynal.hpp"
#include "core/af2.hpp"
#include "core/at2.hpp"
#include "core/price.hpp"
#include "rsm/rsm.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

struct WindowCase {
  Round window;
  int slots;
  int algo;  // 0 = A_{t+2}, 1 = A_{t+2}+ff, 2 = HR, 3 = A_{f+2}
  int burst = 1;  ///< slots started together per window step
};

class RsmWindowSweep : public ::testing::TestWithParam<WindowCase> {};

TEST_P(RsmWindowSweep, LogsAgreeUnderCrashAndAsynchrony) {
  const auto [window, slots, algo, burst] = GetParam();
  const SystemConfig cfg{.n = 7, .t = 2};  // t < n/3 so A_{f+2} also works
  AlgorithmFactory slot_factory;
  switch (algo) {
    case 0:
      slot_factory = at2_factory(hurfin_raynal_factory());
      break;
    case 1: {
      At2Options opt;
      opt.failure_free_opt = true;
      slot_factory = at2_factory(hurfin_raynal_factory(), opt);
      break;
    }
    case 2:
      slot_factory = hurfin_raynal_factory();
      break;
    default:
      slot_factory = af2_factory();
      break;
  }

  RsmOptions opt;
  opt.num_slots = slots;
  opt.slot_window = window;
  opt.slot_burst = burst;
  auto streams = [](ProcessId id) {
    return std::vector<Value>{500 + id, 600 + id};
  };

  // One crash plus a short asynchronous spell.
  ScheduleBuilder b(cfg);
  b.crash(2, 3);
  for (Round k = 4; k <= 6; ++k) {
    for (ProcessId r = 0; r < cfg.n; ++r) {
      if (r != 5) b.delay(5, r, k, 7);
    }
  }
  b.gst(7);

  KernelOptions koptions;
  koptions.model = Model::ES;
  koptions.max_rounds = 40 + window * slots;
  koptions.stop_on_global_decision = false;

  AlgorithmInstances instances;
  RunResult r = run_and_check(cfg, koptions,
                              rsm_factory(slot_factory, streams, opt),
                              distinct_proposals(cfg.n), b.build(),
                              &instances);
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();

  const ProcessSet correct = r.trace.correct();
  const auto* reference =
      dynamic_cast<const RsmReplica*>(instances[correct.min()].get());
  ASSERT_NE(reference, nullptr);
  ASSERT_TRUE(reference->all_slots_committed())
      << "window=" << window << " algo=" << algo << "\n"
      << r.trace.to_string();
  for (ProcessId pid : correct) {
    const auto* replica =
        dynamic_cast<const RsmReplica*>(instances[pid].get());
    ASSERT_TRUE(replica->all_slots_committed()) << "replica p" << pid;
    for (int slot = 0; slot < slots; ++slot) {
      EXPECT_EQ(replica->log()[slot], reference->log()[slot])
          << "slot " << slot << " window " << window;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsmWindowSweep,
    ::testing::Values(WindowCase{1, 6, 0}, WindowCase{2, 6, 0},
                      WindowCase{5, 4, 0}, WindowCase{1, 6, 1},
                      WindowCase{3, 5, 1}, WindowCase{2, 6, 2},
                      WindowCase{4, 4, 2}, WindowCase{1, 6, 3},
                      WindowCase{2, 5, 3},
                      // burst > 1: k slots in flight per window step
                      WindowCase{2, 6, 0, 2}, WindowCase{2, 6, 1, 3},
                      WindowCase{3, 6, 1, 6},  // whole log in one burst
                      WindowCase{2, 5, 2, 2}, WindowCase{2, 6, 3, 2},
                      WindowCase{4, 7, 1, 3}   // slots % burst != 0
                      ));

TEST(RsmBurst, InvalidBurstThrows) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmOptions opt;
  opt.slot_burst = 0;
  EXPECT_THROW(
      RsmReplica(0, cfg, at2_factory(hurfin_raynal_factory()), {42}, opt),
      std::invalid_argument);
  opt.slot_burst = -3;
  EXPECT_THROW(
      RsmReplica(0, cfg, at2_factory(hurfin_raynal_factory()), {42}, opt),
      std::invalid_argument);
}

TEST(RsmBurst, DeeperPipelineCommitsTheLogInFewerRounds) {
  // Same log, same algorithm, same failure-free schedule: burst=slots must
  // finish the whole log strictly earlier than burst=1, and slots in one
  // burst must share their start round (visible as equal commit rounds
  // under a deterministic schedule).
  const SystemConfig cfg{.n = 5, .t = 2};
  constexpr int kSlots = 6;
  constexpr Round kWindow = 2;
  const auto run_with_burst = [&](int burst) {
    At2Options ff;
    ff.failure_free_opt = true;
    RsmOptions opt;
    opt.num_slots = kSlots;
    opt.slot_window = kWindow;
    opt.slot_burst = burst;
    auto streams = [](ProcessId id) {
      return std::vector<Value>{700 + id, 800 + id};
    };
    KernelOptions koptions;
    koptions.model = Model::ES;
    koptions.max_rounds = 40;
    koptions.stop_on_global_decision = false;
    AlgorithmInstances instances;
    RunResult r = run_and_check(
        cfg, koptions,
        rsm_factory(at2_factory(hurfin_raynal_factory(), ff), streams, opt),
        distinct_proposals(cfg.n), failure_free_schedule(cfg), &instances);
    EXPECT_TRUE(r.validation.ok()) << r.validation.to_string();
    const auto* replica = dynamic_cast<const RsmReplica*>(instances[0].get());
    EXPECT_NE(replica, nullptr);
    EXPECT_TRUE(replica->all_slots_committed()) << "burst=" << burst;
    Round last_commit = 0;
    for (int s = 0; s < kSlots; ++s) {
      last_commit = std::max(last_commit, replica->commit_round(s));
    }
    return std::pair(last_commit, instances.size());
  };
  const auto [serial_finish, n1] = run_with_burst(1);
  const auto [parallel_finish, n2] = run_with_burst(kSlots);
  EXPECT_LT(parallel_finish, serial_finish)
      << "pipelining " << kSlots << " slots did not shorten the run";
}

// --- owner-first placement ------------------------------------------------
//
// n = 3 replicas of A_{t+2}+ff at window 1, with a 16-slot log opened as
// one burst: every replica owns five or six of its slots, room for a
// handful of commands, so a lightly loaded burst gets at most one proposal
// per slot.

constexpr int kLightSlots = 16;  // one burst

RsmOptions light_burst_options() {
  RsmOptions opt;
  opt.num_slots = kLightSlots;
  opt.slot_window = 1;
  opt.slot_burst = kLightSlots;
  return opt;
}

AlgorithmFactory ff_slots() {
  At2Options ff;
  ff.failure_free_opt = true;
  return at2_factory(hurfin_raynal_factory(), ff);
}

KernelOptions light_burst_kernel() {
  KernelOptions koptions;
  koptions.model = Model::ES;
  koptions.max_rounds = 12;
  koptions.stop_on_global_decision = false;
  return koptions;
}

const RsmReplica& replica_of(const AlgorithmInstances& instances,
                             ProcessId pid) {
  return dynamic_cast<const RsmReplica&>(*instances[pid]);
}

/// Command -> every slot of `replica`'s log that holds it (no-ops skipped).
std::map<Value, std::vector<int>> command_slots(const RsmReplica& replica) {
  std::map<Value, std::vector<int>> slots;
  for (int slot = 0; slot < kLightSlots; ++slot) {
    const std::optional<Value>& v = replica.log()[slot];
    if (v && !is_rsm_noop(*v)) slots[*v].push_back(slot);
  }
  return slots;
}

TEST(RsmBurst, LightBurstCommitsEveryCommandInItsFirstBurst) {
  // Three commands per replica (the kernel proposal and two fixed ones):
  // owner-first placement puts all nine into distinct slots of burst 0,
  // so each commits when its slot first decides — round 2 on the
  // failure-free path.  Had every replica started from the burst's lowest
  // slot, slots 0..2 would each commit one of three proposals and the six
  // losers would miss round 2.
  const SystemConfig cfg{.n = 3, .t = 1};
  auto streams = [](ProcessId id) {
    return std::vector<Value>{100 + id, 200 + id};
  };
  AlgorithmInstances instances;
  const RunResult r = run_and_check(
      cfg, light_burst_kernel(),
      rsm_factory(ff_slots(), streams, light_burst_options()),
      distinct_proposals(cfg.n), failure_free_schedule(cfg), &instances);
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();

  const std::set<Value> commands = {0, 1, 2, 100, 101, 102, 200, 201, 202};
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    const RsmReplica& replica = replica_of(instances, pid);
    const auto slots = command_slots(replica);
    EXPECT_EQ(slots.size(), commands.size()) << "p" << pid;
    for (const auto& [cmd, where] : slots) {
      EXPECT_TRUE(commands.contains(cmd)) << "p" << pid << " cmd " << cmd;
      ASSERT_EQ(where.size(), 1u) << "p" << pid << " cmd " << cmd;
      EXPECT_EQ(replica.commit_round(where[0]),
                price(PriceRow::At2FailureFree, cfg, 0).round)
          << "p" << pid << " cmd " << cmd << " in slot " << where[0];
    }
  }
}

TEST(RsmBurst, LightBurstPullsAndCommitsEachIngestedCommandOnce) {
  // Ingest mode: each replica pulls three commands from its own source.
  // Every pull lands in a slot it owns, so no command loses and none is
  // pulled twice or committed twice.
  const SystemConfig cfg{.n = 3, .t = 1};
  struct Stub {
    std::vector<Value> pending;
    std::vector<Value> pulled;
    std::map<Value, int> commits;
  };
  std::vector<Stub> stubs(cfg.n);
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    stubs[pid].pending = {1000 + pid, 2000 + pid, 3000 + pid};
  }
  const auto source_for = [&stubs](ProcessId pid) -> RsmCommandSource {
    return [&stub = stubs[pid]]() -> std::optional<Value> {
      if (stub.pulled.size() == stub.pending.size()) return std::nullopt;
      stub.pulled.push_back(stub.pending[stub.pulled.size()]);
      return stub.pulled.back();
    };
  };
  const auto commit_for = [&stubs](ProcessId pid) -> RsmCommitCallback {
    return [&stub = stubs[pid]](int, Value v, Round) {
      if (!is_rsm_noop(v)) ++stub.commits[v];
    };
  };
  AlgorithmInstances instances;
  const RunResult r = run_and_check(
      cfg, light_burst_kernel(),
      rsm_ingest_factory(ff_slots(), source_for, commit_for,
                         light_burst_options()),
      std::vector<Value>(cfg.n, kNoOpCommand), failure_free_schedule(cfg),
      &instances);
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();

  std::map<Value, int> expected;
  for (const Stub& stub : stubs) {
    EXPECT_EQ(stub.pulled, stub.pending);
    for (Value v : stub.pending) expected[v] = 1;
  }
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    EXPECT_EQ(stubs[pid].commits, expected) << "p" << pid;
    for (const auto& [cmd, where] :
         command_slots(replica_of(instances, pid))) {
      ASSERT_EQ(where.size(), 1u) << "p" << pid << " cmd " << cmd;
      EXPECT_EQ(replica_of(instances, pid).commit_round(where[0]),
                price(PriceRow::At2FailureFree, cfg, 0).round)
          << "p" << pid << " cmd " << cmd;
    }
  }
}

TEST(RsmBurst, LightBurstSurvivesACrashBeforeTheFirstSend) {
  // p0 dies before sending round 1: its owned slots commit no-ops, the
  // survivors' logs agree, and each survivor's command commits exactly
  // once.
  const SystemConfig cfg{.n = 3, .t = 1};
  auto streams = [](ProcessId id) {
    return std::vector<Value>{100 + id, 200 + id};
  };
  ScheduleBuilder b(cfg);
  b.crash(0, 1, /*before_send=*/true);
  KernelOptions koptions = light_burst_kernel();
  koptions.max_rounds = 40;
  AlgorithmInstances instances;
  const RunResult r = run_and_check(
      cfg, koptions, rsm_factory(ff_slots(), streams, light_burst_options()),
      distinct_proposals(cfg.n), b.build(), &instances);
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();

  const RsmReplica& p1 = replica_of(instances, 1);
  const RsmReplica& p2 = replica_of(instances, 2);
  ASSERT_TRUE(p1.all_slots_committed());
  ASSERT_TRUE(p2.all_slots_committed());
  EXPECT_EQ(p1.log(), p2.log());
  const auto slots = command_slots(p1);
  for (Value cmd : {1, 2, 101, 102, 201, 202}) {
    const auto it = slots.find(cmd);
    ASSERT_NE(it, slots.end()) << "cmd " << cmd << " never committed";
    EXPECT_EQ(it->second.size(), 1u) << "cmd " << cmd;
  }
}

TEST(RsmBurst, LazyStartPullsNothingForSlotsADecideNoticeSettles) {
  // on_round without a preceding send step starts the burst itself.  Slots
  // 0 and 2 arrive already settled by p0's DECIDE notices, so p1 pulls
  // only for its owned slot 1 and the far-end slot 3, and the settled
  // slots commit in slot order.
  const SystemConfig cfg{.n = 3, .t = 1};
  RsmOptions opt;
  opt.num_slots = 4;
  opt.slot_window = 1;
  opt.slot_burst = 4;
  RsmReplica replica(1, cfg, ff_slots(), {}, opt);
  std::vector<Value> pulled;
  replica.set_command_source([&pulled, next = Value{500}]() mutable {
    pulled.push_back(next);
    return std::optional<Value>(next++);
  });
  std::vector<int> committed_slots;
  replica.set_commit_callback(
      [&committed_slots](int slot, Value, Round) {
        committed_slots.push_back(slot);
      });

  const Delivery delivered = {
      Envelope{0, 1,
               std::make_shared<RsmBundleMessage>(
                   std::vector<RsmBundleMessage::Part>{},
                   std::vector<RsmBundleMessage::Notice>{{0, 77}, {2, 88}})}};
  replica.on_round(1, delivered);

  EXPECT_EQ(pulled, (std::vector<Value>{500, 501}));
  EXPECT_EQ(committed_slots, (std::vector<int>{0, 2}));
  EXPECT_EQ(replica.log()[0], std::optional<Value>(77));
  EXPECT_EQ(replica.log()[2], std::optional<Value>(88));
}

TEST(RsmBurst, LogCoversTheStartedSlotsNotTheWholeCap) {
  // num_slots caps the log rather than reserving it: after k rounds a
  // replica holds entries only for the slots it started or learned.
  const SystemConfig cfg{.n = 3, .t = 1};
  constexpr int kBurst = 16;
  constexpr Round kRounds = 10;
  RsmOptions opt;
  opt.num_slots = 1'000'000;
  opt.slot_window = 1;
  opt.slot_burst = kBurst;
  opt.decide_retention = 2;
  KernelOptions koptions = light_burst_kernel();
  koptions.max_rounds = kRounds;
  auto streams = [](ProcessId id) {
    return std::vector<Value>{100 + id, 200 + id};
  };
  AlgorithmInstances instances;
  const RunResult r = run_and_check(
      cfg, koptions, rsm_factory(ff_slots(), streams, opt),
      distinct_proposals(cfg.n), failure_free_schedule(cfg), &instances);
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();

  // Window 1 starts one burst per round, and each burst decides in its
  // round 2 on the failure-free path.
  const std::size_t started = static_cast<std::size_t>(kRounds) * kBurst;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    const RsmReplica& replica = replica_of(instances, pid);
    EXPECT_LE(replica.log().size(), started) << "p" << pid;
    EXPECT_EQ(replica.committed_prefix(), (kRounds - 1) * kBurst)
        << "p" << pid;
    EXPECT_FALSE(replica.all_slots_committed()) << "p" << pid;
    EXPECT_EQ(replica.commit_round(opt.num_slots - 1), 0) << "p" << pid;
  }
}

TEST(RsmBundle, ConstructorRejectsUnorderedOrOverlappingSlots) {
  const MessagePtr filler = std::make_shared<FillerMessage>();
  using Parts = std::vector<RsmBundleMessage::Part>;
  using Notices = std::vector<RsmBundleMessage::Notice>;
  EXPECT_NO_THROW(RsmBundleMessage(Parts{{1, filler}, {4, filler}},
                                   Notices{{0, 7}, {2, 8}}));
  EXPECT_THROW(RsmBundleMessage(Parts{{4, filler}, {1, filler}}, Notices{}),
               std::invalid_argument);
  EXPECT_THROW(RsmBundleMessage(Parts{}, Notices{{2, 7}, {2, 8}}),
               std::invalid_argument);
  EXPECT_THROW(RsmBundleMessage(Parts{{2, filler}}, Notices{{2, 7}}),
               std::invalid_argument);
  EXPECT_THROW(RsmBundleMessage(Parts{{2, nullptr}}, Notices{}),
               std::invalid_argument);
}

TEST(RsmWindows, KernelProposalOfReservedValueIsSkipped) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmReplica replica(0, cfg, at2_factory(hurfin_raynal_factory()), {42}, {});
  replica.propose(kNoOpCommand);  // must not throw, must not enqueue
  // First slot proposes 42 (the real command), not the sentinel.
  (void)replica.message_for_round(1);
  SUCCEED();
}

}  // namespace
}  // namespace indulgence
