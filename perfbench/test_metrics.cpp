// Unit tests of the benchmark's own arithmetic (metrics.hpp).  Build and run
// with the perfbench project:
//   cmake -S perfbench -B build-perfbench -G Ninja
//   cmake --build build-perfbench --target perfbench_tests
//   ctest --test-dir build-perfbench

#include <gtest/gtest.h>

#include <thread>

#include "metrics.hpp"

namespace perfbench {
namespace {

using indulgence::client::ClientFleet;
using indulgence::client::CommandState;
using indulgence::client::LoopMode;
using indulgence::client::WorkloadOptions;

TEST(Repetitions, CombineByTheMeanOfTheMiddleHalf) {
  EXPECT_DOUBLE_EQ(interquartile_mean({}), 0);
  EXPECT_DOUBLE_EQ(interquartile_mean({4, 1, 7}), 4);  // fewer than 4: mean
  EXPECT_DOUBLE_EQ(interquartile_mean({9, 1, 3, 5}), 4);
  // One stalled repetition among eight moves nothing.
  EXPECT_DOUBLE_EQ(interquartile_mean({10, 11, 12, 13, 10, 11, 12, 900}),
                   interquartile_mean({10, 11, 12, 13, 10, 11, 12, 13}));
  EXPECT_DOUBLE_EQ(interquartile_mean({10, 11, 12, 13, 10, 11, 12, 900}),
                   11.5);
}

TEST(Quantile, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(quantile_supported(1000, 0.99));
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(quantile_supported(999, 0.99));
  EXPECT_TRUE(quantile_supported(20, 0.50));
  EXPECT_FALSE(quantile_supported(19, 0.50));
  EXPECT_FALSE(quantile_supported(9999, 0.999));
  EXPECT_TRUE(quantile_supported(10000, 0.999));
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(OpenLoopWindow, CountsOnlyArrivalsDueBeforeTheStop) {
  const std::vector<std::uint64_t> due = {100, 200, 300, 400, 500};
  const std::vector<CommandState> states = {
      CommandState::Acked, CommandState::Shed, CommandState::Pending,
      CommandState::Shed};
  WindowCounts w = count_due_window(due, states, 250);
  EXPECT_EQ(w.attempted, 2);
  EXPECT_EQ(w.failed, 1);  // the shed arrival due at 200; not the one at 400
  w = count_due_window(due, states, 301);
  EXPECT_EQ(w.attempted, 3);
  EXPECT_EQ(w.failed, 1);  // a command pending at the stop has not failed
  w = count_due_window(due, states, 1000);
  EXPECT_EQ(w.attempted, 5);
  EXPECT_EQ(w.failed, 3);  // the arrival due at 500 was never generated
  w = count_due_window(due, states, 100);
  EXPECT_EQ(w.attempted, 0);
  EXPECT_EQ(w.failed, 0);
}

TEST(OpenLoopWindow, AbandonedAndLateAcksFail) {
  const std::vector<std::uint64_t> due = {1, 2, 3};
  const std::vector<CommandState> states = {
      CommandState::Abandoned, CommandState::AckedLate, CommandState::Acked};
  const WindowCounts w = count_due_window(due, states, 10);
  EXPECT_EQ(w.attempted, 3);
  EXPECT_EQ(w.failed, 2);
}

TEST(DueInstants, AreThePoissonScheduleAtTheClientsShareOfTheRate) {
  WorkloadOptions w;
  w.mode = LoopMode::OpenPoisson;
  w.num_clients = 4;
  w.target_rate_per_sec = 8'000;
  w.seed = 11;
  const std::vector<std::uint64_t> due = due_instants(w, 2, 10'000'000);
  // 2,000/s per client for 10 s.
  EXPECT_NEAR(static_cast<double>(due.size()), 20'000, 600);
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_LE(due.back(), 10'000'000u);
  EXPECT_EQ(due, due_instants(w, 2, 10'000'000));
  EXPECT_NE(due, due_instants(w, 1, 10'000'000));
}

TEST(DueInstants, MatchWhatTheFleetGenerates) {
  // Nothing pulls, so every arrival either waits in a queue or is shed;
  // either way it gets a seq, and the fleet generates seq s only once its
  // due instant has passed.
  WorkloadOptions w;
  w.mode = LoopMode::OpenPoisson;
  w.num_clients = 3;
  w.target_rate_per_sec = 6'000;
  w.pending_window = 64;
  w.seed = 5;
  ClientFleet fleet(w, 1, 3);
  const auto epoch = Clock::now();
  fleet.start(epoch);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto before = Clock::now();
  fleet.finish();
  const auto after = Clock::now();
  const auto us = [&](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch)
            .count());
  };
  for (int c = 0; c < w.num_clients; ++c) {
    const std::vector<std::uint64_t> due = due_instants(w, c, us(after));
    const long generated = fleet.seqs_of(c);
    EXPECT_LE(generated, static_cast<long>(due.size()));
    // The generator catches up without sleeping; allow it 100 ms of lag.
    const long due_early = static_cast<long>(
        std::count_if(due.begin(), due.end(), [&](std::uint64_t d) {
          return d + 100'000 < us(before);
        }));
    EXPECT_GE(generated, due_early);
    EXPECT_GT(generated, 0);
    EXPECT_EQ(fleet.state_of(c, generated - 1), CommandState::Shed);
  }
}

Span span(int name, std::int64_t start, std::int64_t end, int parent) {
  return Span{name, start, end, 0, parent};
}

TEST(SelfTime, IsLengthMinusTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      span(0, 0, 100, -1),  // root
      span(1, 10, 30, 0),
      span(1, 20, 50, 0),   // overlaps the previous child
      span(1, 90, 120, 0),  // runs past the root's end: clipped
      span(2, 12, 18, 1),   // grandchild: counts against its parent only
      span(3, 200, 260, -1),
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 60);
}

TEST(SelfTime, BufferNestsOpenSpans) {
  SpanBuffer buffer(Clock::now());
  buffer.open(0);
  buffer.open(1, 7);
  buffer.close(42);
  buffer.open(2);
  const std::vector<Span> spans = buffer.finish();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].id, 42);
  EXPECT_EQ(spans[2].parent, 0);
  for (const Span& s : spans) EXPECT_LE(s.start, s.end);
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0] + (spans[1].end - spans[1].start) +
                (spans[2].end - spans[2].start),
            spans[0].end - spans[0].start);
}

}  // namespace
}  // namespace perfbench
