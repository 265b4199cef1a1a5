// The failure-detector axioms on simulated runs (paper Sect. 4): feeding
// the receipt-based detector with real traces must yield strong
// completeness and eventual strong accuracy after GST — the <>P properties
// the simulation argument claims.

#include <gtest/gtest.h>

#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "fd/failure_detector.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

/// Replays the receipt pattern of `trace` for observer `pid` into a
/// detector and returns the suspect set after each round.
std::vector<ProcessSet> detector_outputs(const RunTrace& trace,
                                         ProcessId pid) {
  SimulatedReceiptDetector fd(pid, trace.config());
  std::vector<ProcessSet> outputs;
  for (Round k = 1; k <= trace.rounds_executed(); ++k) {
    fd.observe_round(k, trace.in_round_senders(pid, k));
    outputs.push_back(fd.suspects());
  }
  return outputs;
}

TEST(FdProperties, StrongCompletenessAndEventualAccuracyOnRandomRuns) {
  const SystemConfig cfg{.n = 6, .t = 2};
  KernelOptions options;
  options.model = Model::ES;
  options.max_rounds = 40;
  options.stop_on_global_decision = false;  // observe long suffixes

  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    RandomEsOptions aopt;
    aopt.gst = 1 + static_cast<Round>(seed % 8);
    aopt.max_delay = 3;
    RandomEsAdversary adversary(cfg, aopt, seed * 59 + 3);
    const RunTrace trace =
        run_and_check(cfg, options, at2_factory(hurfin_raynal_factory()),
                      distinct_proposals(cfg.n), adversary)
            .trace;
    ASSERT_TRUE(validate_trace(trace).ok());

    // After every faulty process has crashed and synchrony holds, the
    // detector output at every correct process must equal the crashed set.
    Round settle = aopt.gst;
    for (const CrashRecord& c : trace.crashes()) {
      settle = std::max(settle, c.round + 1);
    }
    const ProcessSet crashed = trace.crashed();
    for (ProcessId pid : trace.correct()) {
      const auto outputs = detector_outputs(trace, pid);
      for (Round k = settle; k <= trace.rounds_executed(); ++k) {
        ProcessSet expected = crashed;
        expected.erase(pid);
        EXPECT_EQ(outputs[k - 1], expected)
            << "seed " << seed << " observer p" << pid << " round " << k
            << ": suspects " << outputs[k - 1].to_string() << " vs crashed "
            << crashed.to_string();
      }
    }
  }
}

TEST(FdProperties, SuspicionsAreForgivenWhenMessagesResume) {
  // Indulgence at the detector level: a pre-GST false suspicion disappears
  // the round the laggard's messages arrive again.
  const SystemConfig cfg{.n = 4, .t = 1};
  ScheduleBuilder b(cfg);
  for (ProcessId r = 1; r < cfg.n; ++r) b.delay(0, r, 1, 3);
  b.gst(3);
  KernelOptions options;
  options.model = Model::ES;
  options.max_rounds = 8;
  options.stop_on_global_decision = false;
  const RunTrace trace =
      run_and_check(cfg, options, at2_factory(hurfin_raynal_factory()),
                    distinct_proposals(cfg.n), b.build())
          .trace;

  const auto outputs = detector_outputs(trace, 1);
  EXPECT_TRUE(outputs[0].contains(0)) << "p0 falsely suspected in round 1";
  EXPECT_FALSE(outputs[1].contains(0)) << "p0's round-2 message arrived";
}

TEST(FdProperties, NoFalseSuspicionEverInSynchronousRuns) {
  const SystemConfig cfg{.n = 6, .t = 2};
  KernelOptions options;
  options.model = Model::ES;
  options.max_rounds = 16;
  for (const RunSchedule& s : hostile_sync_schedules(cfg, cfg.t)) {
    const RunTrace trace =
        run_and_check(cfg, options, at2_factory(hurfin_raynal_factory()),
                      distinct_proposals(cfg.n), s)
            .trace;
    for (ProcessId pid : trace.correct()) {
      const auto outputs = detector_outputs(trace, pid);
      for (Round k = 1; k <= trace.rounds_executed(); ++k) {
        for (ProcessId suspect : outputs[k - 1]) {
          const auto cr = trace.crash_round(suspect);
          ASSERT_TRUE(cr.has_value())
              << "p" << pid << " suspected live p" << suspect
              << " in a synchronous run";
          EXPECT_LE(*cr, k);
        }
      }
    }
  }
}

}  // namespace
}  // namespace indulgence
