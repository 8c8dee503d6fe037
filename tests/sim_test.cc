#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <random>
#include <set>
#include <tuple>
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

/// (time, src, seq): the queue's firing order is this tuple's order.
using Key = std::tuple<SimTime, SourceId, uint64_t>;

// Differential fuzz of the tick lane against a sorted reference of every
// pending key. Heap events and ticks interleave with pops; ticks land both
// beyond and below the lane's tail so the in-order append and the heap
// fallback both run (the model below counts each), and times are drawn from
// a narrow band so equal-time ties across sources and seqs are common.
TEST(EventQueueTest, TickLanePopsInKeyOrderUnderRandomMix) {
  std::mt19937_64 rng(20090324);
  EventQueue q;
  std::vector<Key> keys;             // every key pushed, by push index
  std::vector<uint32_t> fired;       // push indexes, in pop order
  std::set<Key> pending;             // the sorted reference
  std::deque<Key> lane;              // model of the lane's contents
  uint64_t next_seq[4] = {0, 0, 0, 0};
  size_t lane_appends = 0;
  size_t fallbacks = 0;
  SimTime now = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng() % 8;
    if (op < 4 && !pending.empty()) {
      ASSERT_EQ(q.size(), pending.size());
      ASSERT_EQ(q.PeekTime(), std::get<0>(*pending.begin()));
      SimTime t;
      q.Pop(&t)();
      ASSERT_EQ(keys[fired.back()], *pending.begin());
      ASSERT_EQ(t, std::get<0>(*pending.begin()));
      if (!lane.empty() && lane.front() == *pending.begin()) lane.pop_front();
      pending.erase(pending.begin());
      now = t;
      continue;
    }
    const SourceId src = static_cast<SourceId>(rng() % 4);
    const bool tick = op >= 6;
    // Ticks mostly re-arm one fixed interval on (the engine's shape, in
    // order unless a same-instant tick from a higher source got there
    // first), sometimes land inside the band (out of order: the heap
    // fallback).
    const SimTime at =
        now + static_cast<SimTime>(tick && rng() % 4 != 0 ? 12 : rng() % 4);
    const Key key{at, src, next_seq[src]++};
    const auto index = static_cast<uint32_t>(keys.size());
    keys.push_back(key);
    pending.insert(key);
    std::vector<uint32_t>* out = &fired;
    if (tick) {
      if (lane.empty() || lane.back() < key) {
        lane.push_back(key);
        ++lane_appends;
      } else {
        ++fallbacks;
      }
      q.PushTick(at, src, std::get<2>(key), [out, index] { out->push_back(index); });
    } else {
      q.PushKeyed(at, src, std::get<2>(key), [out, index] { out->push_back(index); });
    }
  }
  while (!pending.empty()) {
    SimTime t;
    q.Pop(&t)();
    ASSERT_EQ(keys[fired.back()], *pending.begin());
    pending.erase(pending.begin());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired.size(), keys.size());
  EXPECT_GT(lane_appends, 1000u) << fallbacks;
  EXPECT_GT(fallbacks, 1000u) << lane_appends;
}

// Every push first, then one drain: the pop sequence is the sorted list of
// every key, including ties at one instant across sources and seqs.
TEST(EventQueueTest, TickLaneDrainsAsSortedKeys) {
  EventQueue q;
  q.ReserveTicks(8);
  std::vector<Key> keys;
  std::vector<uint32_t> fired;
  std::vector<uint32_t>* out = &fired;
  auto push = [&](SimTime at, SourceId src, uint64_t seq, bool tick) {
    const auto index = static_cast<uint32_t>(keys.size());
    keys.emplace_back(at, src, seq);
    if (tick) {
      q.PushTick(at, src, seq, [out, index] { out->push_back(index); });
    } else {
      q.PushKeyed(at, src, seq, [out, index] { out->push_back(index); });
    }
  };
  push(10, 2, 0, true);
  push(10, 2, 1, true);
  push(10, 0, 0, true);   // below the tail: heap fallback
  push(10, 1, 0, false);
  push(20, 0, 1, true);
  push(5, 3, 0, true);    // below the tail: heap fallback
  push(20, 0, 2, false);
  push(30, 1, 1, true);
  EXPECT_EQ(q.size(), keys.size());
  while (!q.empty()) {
    SimTime t;
    q.Pop(&t)();
    EXPECT_EQ(t, std::get<0>(keys[fired.back()]));
  }
  std::vector<Key> popped;
  for (uint32_t i : fired) popped.push_back(keys[i]);
  std::vector<Key> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(popped, sorted);
}

// The ring grows past its reservation (and past a wrapped head) without
// losing order.
TEST(EventQueueTest, TickLaneGrowsAcrossWrap) {
  EventQueue q;
  q.ReserveTicks(4);
  std::vector<SimTime> fired;
  std::vector<SimTime>* out = &fired;
  SimTime next = 0;
  for (int i = 0; i < 3; ++i, ++next)
    q.PushTick(next, 0, next, [out] { out->push_back(0); });
  SimTime t;
  q.Pop(&t)();
  q.Pop(&t)();  // head now sits mid-ring
  for (int i = 0; i < 40; ++i, ++next)
    q.PushTick(next, 0, next, [out] { out->push_back(0); });
  EXPECT_EQ(q.size(), 41u);
  SimTime last = -1;
  while (!q.empty()) {
    q.Pop(&t)();
    EXPECT_GT(t, last);
    last = t;
  }
  EXPECT_EQ(last, next - 1);
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

TEST_F(SimulatorTest, PendingCountIncludesTicks) {
  for (int i = 1; i <= 3; ++i) sim_.ScheduleTick(0, /*src=*/0, 10 * i, [] {});
  At(15, [] {});
  At(25, [] {});
  EXPECT_EQ(sim_.pending_count(), 5u);
  sim_.Run(20);
  EXPECT_EQ(sim_.pending_count(), 2u);
  sim_.Run();
  EXPECT_EQ(sim_.pending_count(), 0u);
}

TEST_F(SimulatorTest, TicksPastTheHorizonFireInTheNextRun) {
  // A self-re-arming tick chain, the engine's maintenance shape.
  std::vector<SimTime> fired;
  std::function<void()> tick = [&] {
    fired.push_back(sim_.Now());
    if (fired.size() < 10) {
      sim_.ScheduleTick(0, /*src=*/0, sim_.Now() + 10, [&tick] { tick(); });
    }
  };
  sim_.ScheduleTick(0, /*src=*/0, 10, [&tick] { tick(); });
  EXPECT_EQ(sim_.Run(55), 5u);
  EXPECT_EQ(sim_.pending_count(), 1u);
  EXPECT_EQ(sim_.Run(), 5u);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}));
}

TEST_F(SimulatorTest, TicksAndEventsInterleaveInKeyOrder) {
  // Same instant, the tick from a higher source fires after the event from a
  // lower one, and a same-source pair fires in seq order, whichever
  // structure each waits in.
  std::vector<int> order;
  sim_.ScheduleTick(0, /*src=*/0, 10, [&order] { order.push_back(1); });
  At(10, [&] { order.push_back(2); });
  sim_.ScheduleTick(0, /*src=*/0, 10, [&order] { order.push_back(3); });
  At(5, [&] { order.push_back(0); });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(SimulatorTest, TickIntoThePastDies) {
  At(100, [&] { sim_.ScheduleTick(0, /*src=*/0, 50, [] {}); });
  EXPECT_DEATH(sim_.Run(), "past");
}

TEST(ShardedTickTest, TickForAForeignShardDuringExecutionDies) {
  ShardedSimulatorConfig config;
  config.num_shards = 2;
  config.lookahead_matrix.assign(4, FromMs(5));
  ShardedSimulator sim(config);
  sim.ScheduleAt(0, /*src=*/0, FromMs(1), [&sim] {
    sim.ScheduleTick(1, /*src=*/0, FromMs(100), [] {});
  });
  EXPECT_DEATH(sim.Run(), "tick for shard 1 scheduled from shard 0");
}

// A cross-shard send below the destination's window end must die on both
// delivery paths: a lone worker pushes straight into the destination queue,
// several workers go through the mailboxes.
void ExpectCrossShardSendInsideWindowDies(uint32_t workers) {
  ShardedSimulatorConfig config;
  config.num_shards = 2;
  config.num_workers = workers;
  config.lookahead_matrix.assign(4, FromMs(5));
  ShardedSimulator sim(config);
  // Shard 1's window ends at 1 ms + 5 ms; this send lands at 1 ms + 1 us.
  sim.ScheduleAt(0, /*src=*/0, FromMs(1), [&sim] {
    sim.ScheduleAt(1, /*src=*/0, sim.Now() + 1, [] {});
  });
  EXPECT_DEATH(sim.Run(), "inside the destination's lookahead window");
}

TEST(ShardedSendTest, CrossShardSendInsideWindowDiesOnOneWorker) {
  ExpectCrossShardSendInsideWindowDies(1);
}

TEST(ShardedSendTest, CrossShardSendInsideWindowDiesOnManyWorkers) {
  ExpectCrossShardSendInsideWindowDies(2);
}

TEST(ShardedTickTest, ControllerMaySeedTicksOnAnyShard) {
  ShardedSimulatorConfig config;
  config.num_shards = 2;
  config.lookahead_matrix.assign(4, FromMs(5));
  ShardedSimulator sim(config);
  for (ShardId s = 0; s < 2; ++s) sim.ReserveTicks(s, 4);
  int fired[2] = {0, 0};
  for (ShardId s = 0; s < 2; ++s) {
    sim.ScheduleTick(s, /*src=*/0, FromMs(1), [&fired, s] { ++fired[s]; });
  }
  EXPECT_EQ(sim.pending_count(), 2u);
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 1);
}

}  // namespace
}  // namespace locaware::sim
