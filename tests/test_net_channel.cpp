// The bounded MPSC channel under the live runtime: FIFO order,
// backpressure, multi-producer correctness, and the delay line (push_at,
// expedite).

#include "net/channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace indulgence {
namespace {

using namespace std::chrono_literals;

TEST(NetChannel, PopsInPushOrder) {
  Channel<int> ch(8);
  for (int i = 0; i < 5; ++i) ch.push(i);
  EXPECT_EQ(ch.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const auto item = ch.try_pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_FALSE(ch.try_pop().has_value());
}

TEST(NetChannel, PushBlocksWhileFullAndResumesOnPop) {
  Channel<int> ch(2);
  ch.push(1);
  ch.push(2);

  std::atomic<bool> third_landed{false};
  std::thread producer([&] {
    ch.push(3);  // must block until the consumer makes room
    third_landed.store(true);
  });

  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(third_landed.load());

  EXPECT_EQ(ch.try_pop().value_or(-1), 1);
  producer.join();
  EXPECT_TRUE(third_landed.load());
  EXPECT_EQ(ch.try_pop().value_or(-1), 2);
  EXPECT_EQ(ch.try_pop().value_or(-1), 3);
}

TEST(NetChannel, PopForTimesOutWhenEmpty) {
  Channel<int> ch(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(ch.pop_for(5ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 4ms);
}

TEST(NetChannel, ZeroTimeoutPopForIsANonBlockingPoll) {
  Channel<int> ch(2);
  // Empty + zero timeout: returns immediately, far below any scheduler
  // quantum (the fast path must skip the condvar entirely).
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(ch.pop_for(0us).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start, 100ms);
  // Non-empty: still pops, exactly like try_pop.
  ch.push(9);
  EXPECT_EQ(ch.pop_for(0us).value_or(-1), 9);
  // Negative timeouts must behave as zero, not as garbage wait_for input.
  EXPECT_FALSE(ch.pop_for(-5ms).has_value());
}

TEST(NetChannel, DrainReturnsLeftoversInOrder) {
  Channel<int> ch(8);
  for (int i = 0; i < 4; ++i) ch.push(i);
  const std::vector<int> rest = ch.drain();
  ASSERT_EQ(rest.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rest[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(ch.size(), 0u);
}

using Clock = Channel<int>::Clock;

TEST(NetChannel, PushAtItemIsNotPoppedBeforeItsDueInstant) {
  Channel<int> ch(4);
  ch.push_at(8, Clock::now() + 1h);
  EXPECT_EQ(ch.size(), 1u);
  EXPECT_FALSE(ch.try_pop().has_value());
  EXPECT_FALSE(ch.pop_for(2ms).has_value());

  // Only a lower bound: a loaded host may pop late, never early.
  const auto due = Clock::now() + 5ms;
  ch.push_at(7, due);
  const auto item = ch.pop_for(10s);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, 7);
  EXPECT_GE(Clock::now(), due);
}

TEST(NetChannel, DelayedItemsPopByDueInstantThenPushOrder) {
  Channel<int> ch(8);
  const auto past = Clock::now() - 1ms;
  ch.push_at(2, past);
  ch.push_at(1, past - 1ms);
  ch.push_at(3, past);
  for (int want = 1; want <= 3; ++want) {
    EXPECT_EQ(ch.try_pop().value_or(-1), want);
  }
}

TEST(NetChannel, PushedItemsStayFifoBesideDelayedOnes) {
  Channel<int> ch(8);
  ch.push_at(100, Clock::now() + 1h);
  ch.push(1);
  ch.push_at(101, Clock::now() - 1ms);
  ch.push(2);
  ch.push(3);
  std::vector<int> popped;
  while (auto item = ch.try_pop()) popped.push_back(*item);
  // The due item pops too, the undue one does not, and the pushed items
  // keep their order around it.
  ASSERT_EQ(popped.size(), 4u);
  EXPECT_EQ(std::count(popped.begin(), popped.end(), 101), 1);
  std::erase(popped, 101);
  EXPECT_EQ(popped, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ch.size(), 1u);
}

TEST(NetChannel, ExpediteMakesEveryDelayedItemPoppableAtOnce) {
  Channel<int> ch(8);
  ch.push_at(1, Clock::now() + 1h);
  ch.push_at(2, Clock::now() + 2h);
  // A consumer asleep until the earliest due instant wakes on expedite.
  std::atomic<int> woke_with{-1};
  std::thread consumer([&] { woke_with.store(ch.pop_for(1h).value_or(-1)); });
  std::this_thread::sleep_for(10ms);
  ch.expedite();
  consumer.join();
  EXPECT_EQ(woke_with.load(), 1);
  EXPECT_EQ(ch.try_pop().value_or(-1), 2);
  // Later delayed items are due at once as well.
  ch.push_at(3, Clock::now() + 1h);
  EXPECT_EQ(ch.try_pop().value_or(-1), 3);
}

TEST(NetChannel, DrainReturnsDelayedItemsToo) {
  Channel<int> ch(8);
  ch.push(1);
  ch.push_at(2, Clock::now() + 1h);
  ch.push_at(3, Clock::now() - 1ms);
  std::vector<int> rest = ch.drain();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest.front(), 1);
  std::sort(rest.begin(), rest.end());
  EXPECT_EQ(rest, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ch.size(), 0u);
}

TEST(NetChannel, ManyProducersOneConsumerLosesNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  Channel<int> ch(16);  // small: forces backpressure
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ch.push(p * kPerProducer + i);
      }
    });
  }
  std::vector<int> seen;
  while (seen.size() < kProducers * kPerProducer) {
    if (auto item = ch.pop_for(100ms)) seen.push_back(*item);
  }
  for (auto& t : producers) t.join();
  // Every item exactly once, and each producer's stream stays in order.
  std::vector<int> next(kProducers, 0);
  for (int item : seen) {
    const int p = item / kPerProducer;
    EXPECT_EQ(item % kPerProducer, next[static_cast<std::size_t>(p)]);
    ++next[static_cast<std::size_t>(p)];
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[static_cast<std::size_t>(p)], kPerProducer);
  }
}

}  // namespace
}  // namespace indulgence
