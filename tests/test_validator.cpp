// The independent model validator: accepts conforming traces, rejects each
// class of violation.  Synthetic traces are built by hand so the validator
// is tested without trusting the kernel.

#include <gtest/gtest.h>

#include <chrono>
#include <iostream>

#include "sim/validator.hpp"

namespace indulgence {
namespace {

const SystemConfig kCfg{.n = 3, .t = 1};

/// A hand-built, fully synchronous, crash-free 1-round ES trace.
RunTrace clean_trace() {
  RunTrace trace(kCfg, Model::ES, /*gst=*/1);
  trace.set_rounds_executed(1);
  trace.set_terminated(true);
  for (ProcessId s = 0; s < kCfg.n; ++s) {
    trace.record_proposal(s, s);
    trace.record_send({1, s, false});
  }
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      trace.record_delivery({1, r, s, 1, nullptr});
    }
  }
  return trace;
}

TEST(Validator, AcceptsCleanTrace) {
  const ValidationReport report = validate_trace(clean_trace());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Validator, RejectsTooManyCrashes) {
  RunTrace trace = clean_trace();
  trace.record_crash({1, 0, true});
  trace.record_crash({1, 1, true});  // two crashes, t = 1
  const ValidationReport report = validate_trace(trace);
  EXPECT_FALSE(report.ok());
}

TEST(Validator, RejectsDoubleCrash) {
  RunTrace trace = clean_trace();
  trace.record_crash({1, 0, true});
  trace.record_crash({1, 0, true});
  EXPECT_FALSE(validate_trace(trace).ok());
}

TEST(Validator, RejectsReceiptWithoutSend) {
  RunTrace trace = clean_trace();
  trace.record_delivery({1, 0, 2, 0, nullptr});  // "round 0" never sent
  EXPECT_FALSE(validate_trace(trace).ok());
}

TEST(Validator, RejectsDuplicateDelivery) {
  RunTrace trace = clean_trace();
  trace.record_delivery({1, 0, 1, 1, nullptr});  // second copy
  EXPECT_FALSE(validate_trace(trace).ok());
}

TEST(Validator, RejectsDeliveryToCrashedProcess) {
  RunTrace trace(kCfg, Model::ES, 1);
  trace.set_rounds_executed(2);
  for (ProcessId s = 0; s < kCfg.n; ++s) trace.record_send({1, s, false});
  trace.record_crash({1, 0, false});
  // p0 crashed in round 1 yet "receives" in round 2.
  trace.record_send({2, 1, false});
  trace.record_delivery({2, 0, 1, 2, nullptr});
  const ValidationReport report = validate_trace(trace);
  EXPECT_FALSE(report.ok());
}

TEST(Validator, RejectsMissingSelfDelivery) {
  RunTrace trace = clean_trace();
  // Remove is impossible on the record API; instead build a fresh trace
  // where p0 misses its own message.
  RunTrace bad(kCfg, Model::ES, 1);
  bad.set_rounds_executed(1);
  bad.set_terminated(true);
  for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      if (r == 0 && s == 0) continue;
      bad.record_delivery({1, r, s, 1, nullptr});
    }
  }
  EXPECT_FALSE(validate_trace(bad).ok());
}

TEST(Validator, RejectsLateSelfDelivery) {
  RunTrace bad(kCfg, Model::ES, 2);
  bad.set_rounds_executed(2);
  for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      if (r == s) continue;
      bad.record_delivery({1, r, s, 1, nullptr});
    }
  }
  for (ProcessId p = 0; p < kCfg.n; ++p) {
    bad.record_delivery({2, p, p, 1, nullptr});  // own message, next round
  }
  EXPECT_FALSE(validate_trace(bad).ok());
}

TEST(Validator, EsRejectsStarvedReceiver) {
  // p0 receives only its own round-1 message: 1 < n - t = 2.
  RunTrace bad(kCfg, Model::ES, /*gst=*/5);
  bad.set_rounds_executed(1);
  for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({1, s, false});
  bad.record_delivery({1, 0, 0, 1, nullptr});
  for (ProcessId r = 1; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      bad.record_delivery({1, r, s, 1, nullptr});
    }
  }
  // Mark the missing messages as pending so reliable-channels holds; the
  // t-resilience check must still fire.
  bad.record_pending({1, 0, 1, 2});
  bad.record_pending({2, 0, 1, 2});
  const ValidationReport report = validate_trace(bad);
  EXPECT_FALSE(report.ok());
  bool resilience = false;
  for (const std::string& v : report.violations) {
    resilience |= v.find("t-resilience") != std::string::npos;
  }
  EXPECT_TRUE(resilience) << report.to_string();
}

TEST(Validator, EsRejectsLostCorrectToCorrectMessage) {
  RunTrace bad(kCfg, Model::ES, /*gst=*/5);
  bad.set_rounds_executed(1);
  for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      if (r == 2 && s == 1) continue;  // p1 -> p2 vanished, both correct
      bad.record_delivery({1, r, s, 1, nullptr});
    }
  }
  const ValidationReport report = validate_trace(bad);
  EXPECT_FALSE(report.ok());
  bool reliable = false;
  for (const std::string& v : report.violations) {
    reliable |= v.find("reliable channels") != std::string::npos;
  }
  EXPECT_TRUE(reliable) << report.to_string();
}

TEST(Validator, EsAcceptsPendingAsNotLost) {
  RunTrace trace(kCfg, Model::ES, /*gst=*/5);
  trace.set_rounds_executed(1);
  for (ProcessId s = 0; s < kCfg.n; ++s) trace.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      if (r == 2 && s == 1) continue;
      trace.record_delivery({1, r, s, 1, nullptr});
    }
  }
  trace.record_pending({1, 2, 1, 3});  // p1 -> p2 still in flight
  // p2 now only has n - t current-round messages... exactly 2 = n - t: OK.
  EXPECT_TRUE(validate_trace(trace).ok())
      << validate_trace(trace).to_string();
}

TEST(Validator, EsRejectsPostGstDelay) {
  RunTrace bad(kCfg, Model::ES, /*gst=*/1);  // synchronous run
  bad.set_rounds_executed(2);
  for (Round k = 1; k <= 2; ++k) {
    for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({k, s, false});
  }
  for (Round k = 1; k <= 2; ++k) {
    for (ProcessId r = 0; r < kCfg.n; ++r) {
      for (ProcessId s = 0; s < kCfg.n; ++s) {
        if (k == 1 && r == 2 && s == 1) continue;  // delayed below
        bad.record_delivery({k, r, s, k, nullptr});
      }
    }
  }
  bad.record_delivery({2, 2, 1, 1, nullptr});  // round-1 msg lands in round 2
  const ValidationReport report = validate_trace(bad);
  EXPECT_FALSE(report.ok());
  bool synchrony = false;
  for (const std::string& v : report.violations) {
    synchrony |= v.find("synchrony") != std::string::npos;
  }
  EXPECT_TRUE(synchrony) << report.to_string();
}

TEST(Validator, ScsRejectsAnyDelayedDelivery) {
  RunTrace bad(kCfg, Model::SCS, 1);
  bad.set_rounds_executed(2);
  for (Round k = 1; k <= 2; ++k) {
    for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({k, s, false});
    for (ProcessId r = 0; r < kCfg.n; ++r) {
      for (ProcessId s = 0; s < kCfg.n; ++s) {
        bad.record_delivery({k, r, s, k, nullptr});
      }
    }
  }
  bad.record_delivery({2, 0, 1, 1, nullptr});  // duplicate AND delayed
  EXPECT_FALSE(validate_trace(bad).ok());
}

TEST(Validator, ExpectValidThrowsWithReport) {
  RunTrace bad = clean_trace();
  bad.record_crash({1, 0, true});
  bad.record_crash({1, 1, true});
  EXPECT_THROW(expect_valid(bad), std::runtime_error);
}

TEST(Validator, SynchronyAndResilienceVerdictsKeepTheirWording) {
  // p1 misses p0's round-1 copy and p2 gets only its own: the resilience,
  // synchrony and channel verdicts, in the order the checks emit them.
  RunTrace trace(kCfg, Model::ES, /*gst=*/1);
  trace.set_rounds_executed(1);
  for (ProcessId s = 0; s < kCfg.n; ++s) trace.record_send({1, s, false});
  trace.record_delivery({1, 0, 0, 1, nullptr});
  trace.record_delivery({1, 0, 1, 1, nullptr});
  trace.record_delivery({1, 0, 2, 1, nullptr});
  trace.record_delivery({1, 1, 1, 1, nullptr});
  trace.record_delivery({1, 1, 2, 1, nullptr});
  trace.record_delivery({1, 2, 2, 1, nullptr});
  EXPECT_EQ(validate_trace(trace).to_string(),
            "7 model violation(s):\n"
            "  - t-resilience: p2 received only 1 round-1 messages in round 1\n"
            "  - synchrony: p1 missed round-1 message of live sender p0\n"
            "  - synchrony: p2 missed round-1 message of live sender p0\n"
            "  - synchrony: p2 missed round-1 message of live sender p1\n"
            "  - reliable channels: round-1 message p0->p1 (both correct) "
            "was lost\n"
            "  - reliable channels: round-1 message p0->p2 (both correct) "
            "was lost\n"
            "  - reliable channels: round-1 message p1->p2 (both correct) "
            "was lost\n");
}

TEST(Validator, RoundsPastTheExecutedOnesAreJudgedByTheirDeliveries) {
  // A send and its in-round copies recorded past rounds_executed lie
  // outside the in-round index; the synchrony check still finds them.
  RunTrace trace = clean_trace();
  trace.record_send({2, 0, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    trace.record_delivery({2, r, 0, 2, nullptr});
  }
  EXPECT_TRUE(validate_trace(trace).ok()) << validate_trace(trace).to_string();
  trace.record_send({2, 1, false});
  trace.record_delivery({2, 1, 1, 2, nullptr});
  EXPECT_EQ(validate_trace(trace).to_string(),
            "4 model violation(s):\n"
            "  - synchrony: p0 missed round-2 message of live sender p1\n"
            "  - synchrony: p2 missed round-2 message of live sender p1\n"
            "  - reliable channels: round-2 message p1->p0 (both correct) "
            "was lost\n"
            "  - reliable channels: round-2 message p1->p2 (both correct) "
            "was lost\n");
}

/// A failure-free ES trace: every process sends in every round and every
/// copy arrives in-round, n * n deliveries per round.
RunTrace synchronous_trace(const SystemConfig& cfg, Round rounds) {
  RunTrace trace(cfg, Model::ES, /*gst=*/1);
  trace.set_rounds_executed(rounds);
  for (ProcessId p = 0; p < cfg.n; ++p) trace.record_proposal(p, p);
  for (Round k = 1; k <= rounds; ++k) {
    for (ProcessId s = 0; s < cfg.n; ++s) trace.record_send({k, s, false});
    for (ProcessId r = 0; r < cfg.n; ++r) {
      for (ProcessId s = 0; s < cfg.n; ++s) {
        trace.record_delivery({k, r, s, k, nullptr});
      }
    }
  }
  return trace;
}

TEST(ValidatorScaling, LongFailureFreeTraceValidatesClean) {
  // 10^4 rounds at n = 7 is 4.9 x 10^5 deliveries.  Scanning every
  // delivery per (round, receiver) query would take about 10^11
  // comparisons; the validator's one-pass index keeps it linear.  The
  // validate times are printed, not asserted.
  const SystemConfig cfg{.n = 7, .t = 2};
  for (const Round rounds : {Round{1'000}, Round{10'000}}) {
    const RunTrace trace = synchronous_trace(cfg, rounds);
    ASSERT_EQ(trace.deliveries().size(),
              static_cast<std::size_t>(rounds) * 49);
    const auto start = std::chrono::steady_clock::now();
    const ValidationReport report = validate_trace(trace);
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(report.ok()) << report.to_string();
    std::cout << "validate n=7, " << rounds << " rounds, "
              << trace.deliveries().size() << " deliveries: " << took.count()
              << " ms\n";
  }
}

}  // namespace
}  // namespace indulgence
