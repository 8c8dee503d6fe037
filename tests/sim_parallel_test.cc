// Tests for the sharded parallel simulator: conservative-window causality
// (a cross-shard event landing exactly at the lookahead bound is never
// missed — for a uniform matrix and for every per-shard-pair entry),
// shard-count-invariant ordering (per-destination execution order is
// identical for K = 1, 2, 4, 8 and for any worker count), and the
// Run/horizon semantics the engine relies on. The TSan CI job runs exactly
// this binary's SimParallel* suite over the threaded paths, stealing
// included.
#include "sim/sharded_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sim/shard.h"
#include "sim/sim_time.h"

namespace locaware::sim {
namespace {

constexpr SimTime kLook = FromMs(5);

/// `shards` shards under a uniform lookahead matrix.
ShardedSimulatorConfig Config(uint32_t shards, SourceId sources,
                              SimTime lookahead = kLook) {
  ShardedSimulatorConfig config;
  config.num_shards = shards;
  config.lookahead_matrix.assign(static_cast<size_t>(shards) * shards, lookahead);
  config.num_sources = sources;
  return config;
}

TEST(SimParallelTest, SingleShardRunsInKeyOrder) {
  ShardedSimulator sim(Config(1, 4));
  std::vector<int> order;
  // Same timestamp, three sources, deliberately scheduled out of source
  // order: execution must follow (time, src, seq), not insertion order.
  sim.ScheduleAt(0, /*src=*/2, FromMs(10), [&] { order.push_back(2); });
  sim.ScheduleAt(0, /*src=*/0, FromMs(10), [&] { order.push_back(0); });
  sim.ScheduleAt(0, /*src=*/1, FromMs(10), [&] { order.push_back(1); });
  sim.ScheduleAt(0, /*src=*/0, FromMs(5), [&] { order.push_back(9); });
  EXPECT_EQ(sim.Run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{9, 0, 1, 2}));
  EXPECT_EQ(sim.executed_count(), 4u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

// One shard runs the same window loop as many, on the caller's thread, and
// nothing bounds its window but the horizon: a Run that executes events
// takes exactly one window, including the events its handlers schedule.
TEST(SimParallelTest, OneShardIsOneWindowOnTheCallersThread) {
  ShardedSimulator sim(Config(1, 1));
  std::vector<std::thread::id> threads;
  std::function<void(int)> chain = [&](int round) {
    threads.push_back(std::this_thread::get_id());
    if (round == 5) return;
    sim.ScheduleAt(0, 0, sim.Now() + kLook, [&, round] { chain(round + 1); });
  };
  sim.ScheduleAt(0, 0, 0, [&] { chain(0); });
  EXPECT_EQ(sim.Run(), 6u);
  ASSERT_EQ(threads.size(), 6u);
  for (const std::thread::id& id : threads) EXPECT_EQ(id, std::this_thread::get_id());
  EXPECT_EQ(sim.stats().windows, 1u);
  EXPECT_EQ(sim.stats().steals, 0u);
  // A Run with nothing to execute opens no window.
  EXPECT_EQ(sim.Run(), 0u);
  EXPECT_EQ(sim.stats().windows, 1u);
}

TEST(SimParallelTest, HorizonLeavesLaterEventsQueuedAndIdleAdvances) {
  ShardedSimulator sim(Config(2, 2));
  int fired = 0;
  sim.ScheduleAt(0, 0, FromMs(10), [&] { ++fired; });
  sim.ScheduleAt(1, 1, FromMs(100), [&] { ++fired; });
  EXPECT_EQ(sim.Run(FromMs(50)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_count(), 1u);
  // The later event is still there for the next Run.
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), FromMs(100));
}

TEST(SimParallelTest, EventAtExactHorizonStillFires) {
  ShardedSimulator sim(Config(2, 2));
  int fired = 0;
  sim.ScheduleAt(1, 1, FromMs(50), [&] { ++fired; });
  EXPECT_EQ(sim.Run(FromMs(50)), 1u);
  EXPECT_EQ(fired, 1);
}

// A cross-shard message scheduled at exactly now + lookahead is the tightest
// legal send. Ping-pong at that bound for many rounds: a conservative-window
// bug (window too wide, drain too late) would either CHECK-fail or drop a
// bounce.
TEST(SimParallelTest, LookaheadBoundaryPingPongNeverMissesAnEvent) {
  constexpr int kBounces = 200;
  ShardedSimulator sim(Config(2, 2));
  int count = 0;
  std::vector<SimTime> times;
  std::function<void()> bounce = [&] {
    times.push_back(sim.Now());
    if (++count >= kBounces) return;
    const ShardId here = ShardedSimulator::current_shard();
    const ShardId there = 1 - here;
    sim.ScheduleAt(there, /*src=*/here, sim.Now() + kLook, bounce);
  };
  sim.ScheduleAt(0, 0, 0, bounce);
  EXPECT_EQ(sim.Run(), static_cast<uint64_t>(kBounces));
  EXPECT_EQ(count, kBounces);
  for (int i = 0; i < kBounces; ++i) {
    EXPECT_EQ(times[i], static_cast<SimTime>(i) * kLook) << "bounce " << i;
  }
}

// A cross-shard message at exactly now + its *pairwise* bound is the
// tightest legal send under a lookahead matrix. Three shards, two latency
// classes: 0 and 1 are near (5 ms), 2 is far from both (50 ms). Two
// ping-pong chains run concurrently, each landing every hop exactly at its
// own pair's horizon — a window-bound bug on either edge class (near bound
// applied to the far pair, or vice versa) would CHECK-fail or lose a bounce.
TEST(SimParallelTest, PairwiseBoundaryPingPongRunsBothLatencyClasses) {
  constexpr SimTime kNear = FromMs(5);
  constexpr SimTime kFar = FromMs(50);
  constexpr int kNearBounces = 60;
  constexpr int kFarBounces = 6;
  ShardedSimulatorConfig config = Config(3, 4, kNear);
  config.lookahead_matrix = {0,     kNear, kFar,   // 0 -> {1 near, 2 far}
                             kNear, 0,     kFar,   // 1 -> {0 near, 2 far}
                             kFar,  kFar,  0};     // 2 -> both far
  ShardedSimulator sim(config);
  EXPECT_EQ(sim.LookaheadBetween(0, 1), kNear);
  EXPECT_EQ(sim.LookaheadBetween(2, 0), kFar);

  int near_count = 0;
  std::vector<SimTime> near_times;  // appended by shards 0/1 alternately,
                                    // ordered by the bounce chain itself
  std::function<void()> near_bounce = [&] {
    near_times.push_back(sim.Now());
    if (++near_count >= kNearBounces) return;
    const ShardId here = ShardedSimulator::current_shard();
    sim.ScheduleAt(1 - here, /*src=*/here, sim.Now() + kNear, near_bounce);
  };
  int far_count = 0;
  std::vector<SimTime> far_times;
  std::function<void()> far_bounce = [&] {
    far_times.push_back(sim.Now());
    if (++far_count >= kFarBounces) return;
    const ShardId here = ShardedSimulator::current_shard();
    const ShardId there = (here == 2) ? 0 : 2;
    sim.ScheduleAt(there, /*src=*/here, sim.Now() + kFar, far_bounce);
  };
  sim.ScheduleAt(0, 0, 0, near_bounce);
  sim.ScheduleAt(2, 2, 0, far_bounce);
  EXPECT_EQ(sim.Run(), static_cast<uint64_t>(kNearBounces + kFarBounces));
  for (int i = 0; i < kNearBounces; ++i) {
    EXPECT_EQ(near_times[i], static_cast<SimTime>(i) * kNear) << "near " << i;
  }
  for (int i = 0; i < kFarBounces; ++i) {
    EXPECT_EQ(far_times[i], static_cast<SimTime>(i) * kFar) << "far " << i;
  }
}

// The deep-window payoff, pinned deterministically: the same two-cluster
// workload under the scalar global-min bound vs the true pairwise matrix.
// Window count is a pure function of (events, bounds), so the assertion is
// exact — the matrix run must synchronize strictly less often.
TEST(SimParallelTest, PairwiseMatrixDeepensWindows) {
  static constexpr SimTime kIntra = FromMs(1);
  static constexpr SimTime kCross = FromMs(50);
  static constexpr int kTicks = 100;
  const auto run = [&](bool use_matrix) {
    ShardedSimulatorConfig config = Config(2, 2, use_matrix ? kCross : kIntra);
    ShardedSimulator sim(config);
    // Each shard ticks a private 1 ms chain and fires one far message at the
    // cross-link latency midway — cross traffic exists, but never closer
    // than kCross. (The tick closures outlive the setup loop: events hold
    // references into this vector for the whole run.)
    std::vector<std::function<void(int)>> ticks(2);
    for (ShardId s = 0; s < 2; ++s) {
      ticks[s] = [&sim, &ticks, s](int round) {
        if (round >= kTicks) return;
        sim.ScheduleAt(s, s, sim.Now() + kIntra,
                       [&ticks, s, round] { ticks[s](round + 1); });
        if (round == kTicks / 2) {
          sim.ScheduleAt(1 - s, s, sim.Now() + kCross, [] {});
        }
      };
      sim.ScheduleAt(s, s, 0, [&ticks, s] { ticks[s](0); });
    }
    sim.Run();
    // Per shard: ticks 0..kTicks (the last returns immediately) plus the one
    // inbound cross event.
    EXPECT_EQ(sim.executed_count(), static_cast<uint64_t>(2 * (kTicks + 2)));
    return sim.stats().windows;
  };
  const uint64_t scalar_windows = run(false);
  const uint64_t matrix_windows = run(true);
  EXPECT_LT(matrix_windows, scalar_windows);
  EXPECT_LE(matrix_windows, 6u);  // ~100 ms of sim time in >= 50 ms windows
}

// The determinism contract: per-destination execution order is a pure
// function of the simulation, not of the shard count or the worker count.
// Each source floods a deterministic cascade of messages
// (with deliberate time ties) at a fixed set of destinations; the
// per-destination logs must be identical for every partitioning of
// destinations over shards and every thread assignment.
struct LogEntry {
  SimTime time;
  uint32_t src;
  uint32_t tag;
  bool operator==(const LogEntry&) const = default;
};

std::vector<std::vector<LogEntry>> RunCascade(uint32_t num_shards,
                                              uint32_t num_workers = 0) {
  constexpr uint32_t kNodes = 12;
  constexpr int kDepth = 5;
  ShardedSimulatorConfig cascade_config = Config(num_shards, kNodes);
  cascade_config.num_workers = num_workers;
  ShardedSimulator sim(cascade_config);
  // logs[d] is only ever appended by destination d's handler, which always
  // runs on shard d % num_shards — single-writer, no lock needed.
  std::vector<std::vector<LogEntry>> logs(kNodes);

  // send(src, dst, depth, tag): log at dst, then fan out two messages whose
  // delays collide with other sources' sends (all multiples of kLook).
  std::function<void(uint32_t, uint32_t, int, uint32_t)> handle =
      [&](uint32_t src, uint32_t dst, int depth, uint32_t tag) {
        logs[dst].push_back(LogEntry{sim.Now(), src, tag});
        if (depth >= kDepth) return;
        const uint32_t a = (dst * 7 + tag + 1) % kNodes;
        const uint32_t b = (dst * 3 + src + 2) % kNodes;
        const SimTime ta = sim.Now() + kLook;
        const SimTime tb = sim.Now() + 2 * kLook;
        sim.ScheduleAt(a % num_shards, dst, ta,
                       [=] { handle(dst, a, depth + 1, tag * 2 + 1); });
        sim.ScheduleAt(b % num_shards, dst, tb,
                       [=] { handle(dst, b, depth + 1, tag * 2); });
      };

  for (uint32_t n = 0; n < kNodes; ++n) {
    sim.ScheduleAt(n % num_shards, n, /*at=*/0, [=] { handle(n, n, 0, n); });
  }
  sim.Run();
  return logs;
}

TEST(SimParallelTest, PerDestinationOrderInvariantAcrossShardCounts) {
  const auto baseline = RunCascade(1);
  size_t total = 0;
  for (const auto& log : baseline) total += log.size();
  ASSERT_GT(total, 100u);  // the cascade actually fanned out
  for (uint32_t shards : {2u, 3u, 4u, 8u}) {
    const auto sharded = RunCascade(shards);
    ASSERT_EQ(sharded.size(), baseline.size());
    for (size_t d = 0; d < baseline.size(); ++d) {
      EXPECT_EQ(sharded[d], baseline[d]) << "dst " << d << " shards " << shards;
    }
  }
}

// Stealing moves which thread runs a shard, never the order: the cascade
// must replay byte-identically when 8 shards are over-decomposed onto 1, 2
// or 3 workers (one worker runs every shard in turn on a spawned thread).
TEST(SimParallelTest, PerDestinationOrderInvariantUnderWorkStealing) {
  const auto baseline = RunCascade(1);
  for (uint32_t workers : {1u, 2u, 3u}) {
    const auto sharded = RunCascade(8, workers);
    ASSERT_EQ(sharded.size(), baseline.size());
    for (size_t d = 0; d < baseline.size(); ++d) {
      EXPECT_EQ(sharded[d], baseline[d]) << "dst " << d << " workers " << workers;
    }
  }
}

TEST(SimParallelTest, SchedulerStatsAccountWindowsAndOccupancy) {
  const auto run = [](uint32_t workers) {
    ShardedSimulatorConfig config = Config(4, 4);
    config.num_workers = workers;
    ShardedSimulator sim(config);
    // Shard 0 gets a dense chain, the rest one event each: occupancy is
    // skewed and windows accumulate.
    std::function<void(int)> chain = [&sim, &chain](int round) {
      if (round >= 10) return;
      sim.ScheduleAt(0, 0, sim.Now() + kLook, [&chain, round] { chain(round + 1); });
    };
    sim.ScheduleAt(0, 0, 0, [&chain] { chain(0); });
    for (ShardId s = 1; s < 4; ++s) sim.ScheduleAt(s, s, kLook, [] {});
    sim.Run();
    return sim.stats();
  };
  const SchedulerStats one = run(1);
  EXPECT_EQ(one.steals, 0u);  // every shard is the lone worker's home
  EXPECT_EQ(one.idle_ns, 0u);  // nobody to wait for, so no clock is read
  EXPECT_GT(one.windows, 0u);
  uint64_t occupancy_total = 0;
  for (uint64_t count : one.occupancy) occupancy_total += count;
  EXPECT_EQ(occupancy_total, one.windows);
  // More workers execute the identical schedule (windows and occupancy are
  // pure functions of events + bounds); steals and idle are timing-dependent.
  for (uint32_t workers : {2u, 4u}) {
    const SchedulerStats many = run(workers);
    EXPECT_EQ(many.windows, one.windows) << "workers " << workers;
    EXPECT_EQ(many.occupancy, one.occupancy) << "workers " << workers;
  }
}

// Mailbox batching: cross-shard events created inside one window are all
// delivered (drained at the barrier) before the destination passes their
// timestamps, even under a many-to-one burst.
TEST(SimParallelTest, ManyToOneBurstDrainsInTimestampSourceOrder) {
  constexpr uint32_t kSenders = 8;
  ShardedSimulator sim(Config(4, kSenders + 1));
  std::vector<uint32_t> arrivals;  // written only by shard 0 (dst source 0)
  for (uint32_t s = 0; s < kSenders; ++s) {
    // Every sender fires at t = kLook on its own shard, then sends to the
    // common destination on shard 0 with identical arrival times.
    sim.ScheduleAt(s % 4, s + 1, kLook, [&sim, &arrivals, s] {
      sim.ScheduleAt(0, s + 1, 3 * kLook, [&arrivals, s] { arrivals.push_back(s); });
    });
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), kSenders);
  // Identical timestamps: tie-break is source order, independent of which
  // shard's mailbox the event traveled through.
  for (uint32_t s = 0; s < kSenders; ++s) EXPECT_EQ(arrivals[s], s);
  EXPECT_GT(sim.stats().windows, 0u);
}

// The engine's churn repair handshake is a three-message cross-shard chain
// (LinkDrop -> orphan's LinkProbe -> LinkAccept), each hop landing exactly at
// now + lookahead — so every hop crosses a conservative-window boundary. The
// per-endpoint link state must come out identical whether the two peers share
// one shard or live on different ones, and no hop may be lost at the bound.
TEST(SimParallelTest, RepairHandshakeAcrossLookaheadWindowBoundary) {
  struct Step {
    SimTime time;
    std::string what;
    bool operator==(const Step&) const = default;
  };
  // peers: 0 departs; 1 is orphaned and re-probes 0's replacement (peer 2).
  auto run = [&](uint32_t num_shards) {
    ShardedSimulator sim(Config(num_shards, 3));
    std::vector<std::vector<Step>> log(3);  // per-peer, owner-appended only
    std::vector<bool> linked(3, false);
    auto shard_of = [&](uint32_t p) { return p % num_shards; };

    // t = kLook: peer 0 departs and notifies neighbor 1 (LinkDrop).
    sim.ScheduleAt(shard_of(0), 0, kLook, [&, shard_of] {
      log[0].push_back({sim.Now(), "depart"});
      sim.ScheduleAt(shard_of(1), 0, sim.Now() + kLook, [&, shard_of] {
        // Peer 1 processes the drop, is orphaned, probes peer 2.
        log[1].push_back({sim.Now(), "drop"});
        sim.ScheduleAt(shard_of(2), 1, sim.Now() + kLook, [&, shard_of] {
          // Peer 2 accepts: installs its half-link, replies.
          log[2].push_back({sim.Now(), "probe"});
          linked[2] = true;
          sim.ScheduleAt(shard_of(1), 2, sim.Now() + kLook, [&] {
            log[1].push_back({sim.Now(), "accept"});
            linked[1] = true;
          });
        });
      });
    });
    sim.Run();
    EXPECT_TRUE(linked[1]) << num_shards << " shards: prober half missing";
    EXPECT_TRUE(linked[2]) << num_shards << " shards: acceptor half missing";
    return log;
  };

  const auto baseline = run(1);
  ASSERT_EQ(baseline[1].size(), 2u);  // drop then accept
  for (uint32_t shards : {2u, 3u}) {
    const auto sharded = run(shards);
    for (size_t p = 0; p < baseline.size(); ++p) {
      EXPECT_EQ(sharded[p], baseline[p]) << "peer " << p << " shards " << shards;
    }
  }
}

// PR 10: a DHT iterative lookup is a request/reply ping-pong between one
// initiator and a changing set of remote nodes — session state (hops, the
// node currently asked) lives only at the initiator, and every half-trip
// lands exactly at now + lookahead. The hop sequence recorded at each peer
// must be shard-count invariant, and the final fetch must not be lost at the
// window boundary.
TEST(SimParallelTest, IterativeLookupPingPongAcrossLookaheadBoundary) {
  struct Step {
    SimTime time;
    std::string what;
    bool operator==(const Step&) const = default;
  };
  // peer 0 initiates; the route walks 1 -> 2 -> 3; 3 owns the key.
  auto run = [&](uint32_t num_shards) {
    ShardedSimulator sim(Config(num_shards, 4));
    std::vector<std::vector<Step>> log(4);  // owner-appended only
    auto shard_of = [&](uint32_t p) { return p % num_shards; };
    // Initiator-side session state, mutated only on shard_of(0).
    struct Session {
      uint32_t hops = 0;
      bool got_records = false;
    } session;

    // Each queried node replies "ask next" until 3, which replies "done";
    // the initiator then fetches from 3. All hops land at now + kLook.
    std::function<void(uint32_t)> ask = [&](uint32_t node) {
      sim.ScheduleAt(shard_of(node), 0, sim.Now() + kLook, [&, node] {
        log[node].push_back({sim.Now(), "asked"});
        const bool done = node == 3;
        sim.ScheduleAt(shard_of(0), node, sim.Now() + kLook, [&, node, done] {
          log[0].push_back({sim.Now(), done ? "route-done" : "route-next"});
          ++session.hops;
          if (!done) {
            ask(node + 1);
            return;
          }
          // Final fetch from the owner, one more round trip.
          sim.ScheduleAt(shard_of(3), 0, sim.Now() + kLook, [&] {
            log[3].push_back({sim.Now(), "fetch"});
            sim.ScheduleAt(shard_of(0), 3, sim.Now() + kLook, [&] {
              log[0].push_back({sim.Now(), "records"});
              session.got_records = true;
            });
          });
        });
      });
    };
    sim.ScheduleAt(shard_of(0), 0, kLook, [&] {
      log[0].push_back({sim.Now(), "start"});
      ask(1);
    });
    sim.Run();
    EXPECT_TRUE(session.got_records) << num_shards << " shards: fetch lost";
    EXPECT_EQ(session.hops, 3u) << num_shards << " shards";
    return log;
  };

  const auto baseline = run(1);
  ASSERT_EQ(baseline[0].size(), 5u);  // start, 3 route replies, records
  ASSERT_EQ(baseline[3].size(), 2u);  // asked, fetch
  for (uint32_t shards : {2u, 3u}) {
    const auto sharded = run(shards);
    for (size_t p = 0; p < baseline.size(); ++p) {
      EXPECT_EQ(sharded[p], baseline[p]) << "peer " << p << " shards " << shards;
    }
  }
}

TEST(SimParallelTest, ExecutedAndPendingCountsAggregateShards) {
  ShardedSimulator sim(Config(4, 4));
  for (uint32_t s = 0; s < 4; ++s) {
    sim.ScheduleAt(s, s, FromMs(1), [] {});
    sim.ScheduleAt(s, s, FromMs(2), [] {});
  }
  EXPECT_EQ(sim.pending_count(), 8u);
  EXPECT_EQ(sim.Run(), 8u);
  EXPECT_EQ(sim.executed_count(), 8u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

}  // namespace
}  // namespace locaware::sim
