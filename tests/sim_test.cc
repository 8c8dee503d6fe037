#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/sharded_simulator.h"
#include "sim/sim_time.h"

namespace locaware::sim {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(FromMs(1.0), kMillisecond);
  EXPECT_EQ(FromMs(1.5), 1500);
  EXPECT_EQ(FromSeconds(2.0), 2 * kSecond);
  EXPECT_DOUBLE_EQ(ToMs(kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(ToSeconds(kMinute), 60.0);
}

TEST(SimTimeTest, RoundsToNearestMicrosecond) {
  EXPECT_EQ(FromMs(0.0004), 0);
  EXPECT_EQ(FromMs(0.0006), 1);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(FormatSimTime(1500 * kMillisecond), "1.500s");
  EXPECT_EQ(FormatSimTime(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(FormatSimTime(7), "7us");
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.PushKeyed(30, /*src=*/0, /*seq=*/0, [&] { fired.push_back(3); });
  q.PushKeyed(10, /*src=*/0, /*seq=*/1, [&] { fired.push_back(1); });
  q.PushKeyed(20, /*src=*/0, /*seq=*/2, [&] { fired.push_back(2); });
  while (!q.empty()) {
    SimTime t;
    q.Pop(&t)();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInPushOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.PushKeyed(5, /*src=*/0, /*seq=*/i, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) {
    SimTime t;
    q.Pop(&t)();
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, PeekDoesNotPop) {
  EventQueue q;
  q.PushKeyed(42, /*src=*/0, /*seq=*/0, [] {});
  EXPECT_EQ(q.PeekTime(), 42);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, EmptyAccessDies) {
  EventQueue q;
  SimTime t;
  EXPECT_DEATH(q.PeekTime(), "empty");
  EXPECT_DEATH(q.Pop(&t), "empty");
}

// The simulator's single-shard path: the plain sequential loop (no windows)
// every K = 1 run takes. Multi-shard semantics live in sim_parallel_test.cc.
class SimulatorTest : public ::testing::Test {
 protected:
  /// Schedules `fn` at `at` on the only shard, from the controller source.
  void At(SimTime at, EventFn fn) { sim_.ScheduleAt(0, /*src=*/0, at, std::move(fn)); }

  ShardedSimulator sim_{ShardedSimulatorConfig{}};
};

TEST_F(SimulatorTest, StartsAtZero) {
  EXPECT_EQ(sim_.Now(), 0);
  EXPECT_EQ(sim_.pending_count(), 0u);
}

TEST_F(SimulatorTest, ClockAdvancesToEventTime) {
  SimTime seen = -1;
  At(100, [&] { seen = sim_.Now(); });
  sim_.Run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim_.Now(), 100);
}

TEST_F(SimulatorTest, SchedulingIntoThePastDies) {
  At(100, [&] { At(50, [] {}); });
  EXPECT_DEATH(sim_.Run(), "past");
}

TEST_F(SimulatorTest, CascadedEventsAllFire) {
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) At(sim_.Now() + 10, chain);
  };
  At(10, chain);
  EXPECT_EQ(sim_.Run(), 100u);
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim_.Now(), 1000);
}

TEST_F(SimulatorTest, HorizonStopsEarlyAndKeepsLaterEvents) {
  int fired = 0;
  At(10, [&] { ++fired; });
  At(20, [&] { ++fired; });
  At(30, [&] { ++fired; });
  sim_.Run(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim_.pending_count(), 1u);
  sim_.Run();
  EXPECT_EQ(fired, 3);
}

TEST_F(SimulatorTest, IdleAdvanceToHorizon) {
  sim_.Run(500);
  EXPECT_EQ(sim_.Now(), 500);
  // A second horizon run composes.
  sim_.Run(900);
  EXPECT_EQ(sim_.Now(), 900);
}

TEST_F(SimulatorTest, SameTimeEventsDeterministicWithNestedScheduling) {
  // An event scheduled *during* a same-timestamp batch takes the next
  // sequence number of its source, so it fires after the batch.
  std::vector<int> order;
  At(10, [&] {
    order.push_back(1);
    At(10, [&] { order.push_back(3); });
  });
  At(10, [&] { order.push_back(2); });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(SimulatorTest, ExecutedCountAccumulates) {
  for (int i = 0; i < 7; ++i) At(i, [] {});
  sim_.Run();
  EXPECT_EQ(sim_.executed_count(), 7u);
}

}  // namespace
}  // namespace locaware::sim
