// Soak test: a wide randomized sweep across system sizes, GSTs, adversary
// aggressiveness, and algorithms.  Catches interactions the targeted tests
// don't think of.  Every run is validated against the model and against
// the consensus properties; failures print the seed for bit-exact replay.

#include <gtest/gtest.h>

#include "consensus/amr_leader.hpp"
#include "consensus/chandra_toueg.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/af2.hpp"
#include "core/at2_ds.hpp"
#include "rsm/rsm.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

AlgorithmFactory pick_algorithm(int which, const SystemConfig& cfg) {
  switch (which % 6) {
    case 0:
      return at2_factory(hurfin_raynal_factory());
    case 1: {
      At2Options opt;
      opt.failure_free_opt = true;
      return at2_factory(hurfin_raynal_factory(), opt);
    }
    case 2:
      return at2_factory(chandra_toueg_factory());
    case 3:
      return at2_ds_factory(hurfin_raynal_factory(),
                            receipt_detector_factory());
    case 4:
      return cfg.third_correct() ? af2_factory() : hurfin_raynal_factory();
    default:
      return hurfin_raynal_factory();
  }
}

TEST(Soak, RandomizedConfigurationSweep) {
  Rng meta(0x50AB);  // deterministic meta-stream
  int runs = 0;
  for (std::uint64_t i = 0; i < 600; ++i) {
    const int n = meta.next_int(3, 11);
    const int t = meta.next_int(1, (n - 1) / 2);
    const SystemConfig cfg{.n = n, .t = t};

    RandomEsOptions aopt;
    aopt.gst = meta.next_int(1, 10);
    aopt.crash_prob = meta.next_double() * 0.4;
    aopt.laggard_prob = meta.next_double();
    aopt.delay_prob = meta.next_double();
    aopt.max_delay = meta.next_int(1, 6);
    aopt.crash_loss_prob = meta.next_double();
    aopt.allow_crash_delay = meta.chance(1, 2);

    const std::uint64_t seed = meta.next_u64();
    RandomEsAdversary adversary(cfg, aopt, seed);

    KernelOptions options;
    options.model = Model::ES;
    options.max_rounds = 512;

    const AlgorithmFactory factory =
        pick_algorithm(static_cast<int>(i), cfg);
    RunResult r = run_and_check(cfg, options, factory,
                                distinct_proposals(n), adversary);
    ++runs;
    ASSERT_TRUE(r.validation.ok())
        << "iteration " << i << " seed " << seed << " n=" << n << " t=" << t
        << " gst=" << aopt.gst << "\n" << r.validation.to_string();
    ASSERT_TRUE(r.agreement && r.validity && r.termination)
        << "iteration " << i << " seed " << seed << " n=" << n << " t=" << t
        << " gst=" << aopt.gst << "\n" << r.trace.to_string();
  }
  EXPECT_EQ(runs, 600);
}

TEST(Soak, RsmRandomizedSweep) {
  Rng meta(777);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const int n = meta.next_int(4, 8);
    const int t = meta.next_int(1, (n - 1) / 2);
    const SystemConfig cfg{.n = n, .t = t};
    RsmOptions opt;
    opt.num_slots = meta.next_int(2, 5);
    opt.slot_window = meta.next_int(1, resolved_slot_window(RsmOptions{}, cfg));

    RandomEsOptions aopt;
    aopt.gst = meta.next_int(1, 6);
    const std::uint64_t seed = meta.next_u64();
    RandomEsAdversary adversary(cfg, aopt, seed);

    KernelOptions koptions;
    koptions.model = Model::ES;
    koptions.max_rounds = 160;
    koptions.stop_on_global_decision = false;

    auto streams = [](ProcessId id) {
      return std::vector<Value>{1000 + id};
    };
    AlgorithmInstances instances;
    RunResult r = run_and_check(
        cfg, koptions,
        rsm_factory(at2_factory(hurfin_raynal_factory()), streams, opt),
        distinct_proposals(n), adversary, &instances);
    ASSERT_TRUE(r.validation.ok())
        << "iteration " << i << " seed " << seed;

    const ProcessSet correct = r.trace.correct();
    const auto* reference =
        dynamic_cast<const RsmReplica*>(instances[correct.min()].get());
    ASSERT_NE(reference, nullptr);
    for (ProcessId pid : correct) {
      const auto* replica =
          dynamic_cast<const RsmReplica*>(instances[pid].get());
      ASSERT_TRUE(replica->all_slots_committed())
          << "iteration " << i << " seed " << seed << " replica p" << pid
          << "\n" << r.trace.to_string();
      for (int slot = 0; slot < opt.num_slots; ++slot) {
        ASSERT_EQ(replica->log()[slot], reference->log()[slot])
            << "iteration " << i << " seed " << seed << " slot " << slot;
      }
    }
  }
}

}  // namespace
}  // namespace indulgence
