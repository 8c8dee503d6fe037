// PR 10: Chord ring arithmetic, table construction, iterative-lookup
// convergence, and the churn-fuzz findability invariant ("every live
// published key is findable after stabilization"). The pure-table tests
// drive dht/routing.h directly against the Ring's ground-truth successor;
// the engine tests pin the protocol-level counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "dht/ring.h"
#include "dht/routing.h"
#include "metrics/report.h"
#include "overlay/churn.h"
#include "sim/sim_time.h"

namespace locaware::dht {
namespace {

TEST(DhtRingTest, InIntervalHalfOpenAndWrapping) {
  // Plain interval (10, 20].
  EXPECT_FALSE(InInterval(10, 10, 20));  // open at a
  EXPECT_TRUE(InInterval(11, 10, 20));
  EXPECT_TRUE(InInterval(20, 10, 20));  // closed at b
  EXPECT_FALSE(InInterval(21, 10, 20));
  EXPECT_FALSE(InInterval(5, 10, 20));
  // Wrapped interval (2^64-5, 3].
  const RingId hi = ~RingId{0} - 4;
  EXPECT_TRUE(InInterval(hi + 1, hi, 3));
  EXPECT_TRUE(InInterval(0, hi, 3));
  EXPECT_TRUE(InInterval(3, hi, 3));
  EXPECT_FALSE(InInterval(4, hi, 3));
  EXPECT_FALSE(InInterval(hi, hi, 3));
  // Empty span = whole circle (single-member ring owns everything).
  EXPECT_TRUE(InInterval(0, 7, 7));
  EXPECT_TRUE(InInterval(~RingId{0}, 7, 7));
  EXPECT_TRUE(InInterval(7, 7, 7));
}

TEST(DhtRingTest, FingerTargetsDoubleAndWrap) {
  EXPECT_EQ(FingerTarget(0, 0), 1u);
  EXPECT_EQ(FingerTarget(0, 63), RingId{1} << 63);
  EXPECT_EQ(FingerTarget(100, 3), 108u);
  // Wrap: the top finger of a high ring position lands low.
  const RingId n = ~RingId{0} - 10;
  EXPECT_EQ(FingerTarget(n, 4), n + 16);  // wraps via unsigned arithmetic
  EXPECT_LT(FingerTarget(n, 4), RingId{32});
}

TEST(DhtRingTest, RingDistanceWraps) {
  EXPECT_EQ(RingDistance(5, 9), 4u);
  EXPECT_EQ(RingDistance(9, 5), ~RingId{0} - 3);  // the long way around
  EXPECT_EQ(RingDistance(7, 7), 0u);
}

TEST(DhtRingTest, PeerRingIdsAreCollisionFree) {
  constexpr size_t kPeers = 100000;
  const Ring ring = Ring::Build(kPeers);
  ASSERT_EQ(ring.size(), kPeers);
  for (size_t i = 1; i < kPeers; ++i) {
    EXPECT_LT(ring.IdAt(i - 1), ring.IdAt(i));  // strictly sorted => distinct
  }
}

TEST(DhtRingTest, SuccessorOfMatchesLinearScanOracle) {
  constexpr size_t kPeers = 64;
  const Ring ring = Ring::Build(kPeers);
  const auto online = [](PeerId p) { return p % 3 != 0; };  // drop a third
  for (uint64_t probe = 0; probe < 300; ++probe) {
    const RingId key = Mix64(probe * 0x9e3779b97f4a7c15ULL + 1);
    // Oracle: the online member minimizing clockwise distance from the key.
    PeerId want = kInvalidPeer;
    RingId want_dist = 0;
    for (size_t i = 0; i < ring.size(); ++i) {
      if (!online(ring.PeerAt(i))) continue;
      const RingId d = RingDistance(key, ring.IdAt(i));
      if (want == kInvalidPeer || d < want_dist) {
        want = ring.PeerAt(i);
        want_dist = d;
      }
    }
    EXPECT_EQ(ring.SuccessorOf(key, online), want) << "probe " << probe;
  }
  // Nobody online: no owner.
  EXPECT_EQ(ring.SuccessorOf(12345, [](PeerId) { return false; }), kInvalidPeer);
}

TEST(DhtTablesTest, SuccessorListIsNearestOnlineClockwise) {
  constexpr size_t kPeers = 40;
  const Ring ring = Ring::Build(kPeers);
  const auto online = [](PeerId p) { return p % 4 != 1; };
  for (PeerId self = 0; self < kPeers; ++self) {
    RoutingState rt;
    ComputeTables(ring, self, /*num_successors=*/4, /*num_fingers=*/24, online, &rt);
    // Walk the ring from self's position and collect the oracle list.
    std::vector<PeerId> want;
    size_t i = ring.IndexOfFirstAtOrAfter(RingIdOfPeer(self) + 1);
    for (size_t step = 0; step + 1 < kPeers && want.size() < 4;
         ++step, i = (i + 1 == kPeers) ? 0 : i + 1) {
      const PeerId c = ring.PeerAt(i);
      if (c == self) break;
      if (online(c)) want.push_back(c);
    }
    // The route table starts with the oracle list; with fewer than 4 other
    // peers online every finger is one of them, so the list is the table.
    ASSERT_GE(rt.routes.size(), want.size()) << "peer " << self;
    if (want.size() < 4) {
      EXPECT_EQ(rt.routes.size(), want.size()) << "peer " << self;
    }
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(rt.routes[k].peer, want[k]) << "peer " << self << " slot " << k;
    }
    // No entry names self or an offline peer, no peer appears twice, and
    // every cached id is its peer's ring id.
    std::set<PeerId> seen;
    for (size_t k = 0; k < rt.routes.size(); ++k) {
      const RouteEntry& e = rt.routes[k];
      EXPECT_NE(e.peer, self);
      EXPECT_TRUE(online(e.peer));
      EXPECT_TRUE(seen.insert(e.peer).second)
          << "peer " << self << " routes " << e.peer << " twice";
      EXPECT_EQ(e.id, RingIdOfPeer(e.peer)) << "peer " << self << " slot " << k;
    }
  }
}

TEST(DhtTablesTest, AloneOnTheRingOwnsEverything) {
  const Ring ring = Ring::Build(8);
  RoutingState rt;
  // Only peer 5 is online: its tables are empty and NextHop says "mine".
  ComputeTables(ring, 5, 4, 24, [](PeerId p) { return p == 5; }, &rt);
  EXPECT_TRUE(rt.routes.empty());
  const HopDecision hd = NextHop(rt, 5, /*key=*/0xdeadbeef);
  EXPECT_TRUE(hd.done);
  EXPECT_EQ(hd.next, kInvalidPeer);
}

// Brute-force reference for ComputeTables + NextHop, built from scratch
// against the online set: no Ring::SuccessorOf, no dedup, no early stop, and
// Chord's closest-preceding-node filter written with InInterval.
struct ReferenceRouter {
  std::vector<PeerId> successors;  // nearest online non-self peers first
  std::vector<PeerId> fingers;     // successor(self + 2^i), finger range

  template <typename OnlinePred>
  ReferenceRouter(size_t num_peers, PeerId self, size_t num_successors,
                  size_t num_fingers, OnlinePred online) {
    const RingId self_id = RingIdOfPeer(self);
    std::vector<PeerId> others;
    for (PeerId p = 0; p < num_peers; ++p) {
      if (p != self && online(p)) others.push_back(p);
    }
    std::sort(others.begin(), others.end(), [&](PeerId a, PeerId b) {
      return RingDistance(self_id, RingIdOfPeer(a)) <
             RingDistance(self_id, RingIdOfPeer(b));
    });
    successors.assign(others.begin(),
                      others.begin() + std::min(num_successors, others.size()));
    if (others.empty()) return;
    for (uint32_t i = 64 - static_cast<uint32_t>(num_fingers); i < 64; ++i) {
      const RingId target = FingerTarget(self_id, i);
      // successor(target): the online non-self peer nearest clockwise.
      PeerId best = kInvalidPeer;
      RingId best_dist = 0;
      for (PeerId c : others) {
        const RingId dist = RingDistance(target, RingIdOfPeer(c));
        if (best == kInvalidPeer || dist < best_dist) {
          best = c;
          best_dist = dist;
        }
      }
      fingers.push_back(best);
    }
  }

  HopDecision NextHop(PeerId self, RingId key) const {
    if (successors.empty()) return {true, kInvalidPeer};
    const RingId self_id = RingIdOfPeer(self);
    const PeerId succ0 = successors.front();
    if (InInterval(key, self_id, RingIdOfPeer(succ0))) return {true, succ0};
    PeerId best = kInvalidPeer;
    RingId best_dist = 0;
    for (const std::vector<PeerId>* list : {&fingers, &successors}) {
      for (PeerId c : *list) {
        const RingId cid = RingIdOfPeer(c);
        if (cid == key || !InInterval(cid, self_id, key)) continue;
        if (best == kInvalidPeer || RingDistance(self_id, cid) > best_dist) {
          best = c;
          best_dist = RingDistance(self_id, cid);
        }
      }
    }
    if (best != kInvalidPeer) return {false, best};
    return {true, succ0};
  }
};

// Differential oracle: over random ring sizes, online sets, finger counts
// and keys (including the edge keys: self's own id, every candidate's id and
// its neighbours on the circle), the route table holds exactly the reference
// candidate set, and NextHop takes exactly the reference decision.
TEST(DhtTablesTest, NextHopMatchesBruteForceReference) {
  Rng rng(20260418);
  for (uint32_t trial = 0; trial < 240; ++trial) {
    const size_t num_peers = trial < 6 ? trial % 3 + 1 : rng.UniformInt(2, 300);
    const size_t num_fingers = std::array<size_t, 3>{1, 24, 64}[trial % 3];
    const size_t num_successors = rng.UniformInt(1, 8);
    const Ring ring = Ring::Build(num_peers);
    const PeerId self = static_cast<PeerId>(rng.UniformInt(0, num_peers - 1));
    // Every 8th trial leaves at most one peer online (self or another one).
    std::vector<bool> up(num_peers);
    if (trial % 8 == 7) {
      up[rng.UniformInt(0, num_peers - 1)] = true;
    } else {
      const double p_online = rng.UniformDouble(0.05, 1.0);
      for (size_t p = 0; p < num_peers; ++p) up[p] = rng.Bernoulli(p_online);
    }
    const auto online = [&](PeerId p) { return static_cast<bool>(up[p]); };

    RoutingState rt;
    ComputeTables(ring, self, num_successors, num_fingers, online, &rt);
    const ReferenceRouter ref(num_peers, self, num_successors, num_fingers, online);
    ASSERT_GE(rt.routes.size(), ref.successors.size()) << "trial " << trial;
    std::vector<PeerId> successors;
    for (size_t k = 0; k < ref.successors.size(); ++k) {
      successors.push_back(rt.routes[k].peer);
    }
    ASSERT_EQ(successors, ref.successors) << "trial " << trial;
    std::set<PeerId> want(ref.successors.begin(), ref.successors.end());
    want.insert(ref.fingers.begin(), ref.fingers.end());
    std::set<PeerId> got;
    for (const RouteEntry& e : rt.routes) got.insert(e.peer);
    ASSERT_EQ(got, want) << "trial " << trial;
    ASSERT_EQ(rt.routes.size(), want.size()) << "trial " << trial << ": duplicates";

    std::vector<RingId> keys = {RingIdOfPeer(self), RingIdOfPeer(self) + 1,
                                RingIdOfPeer(self) - 1, 0, ~RingId{0}};
    for (PeerId c : want) {
      for (RingId delta : {RingId{0}, RingId{1}, ~RingId{0}}) {
        keys.push_back(RingIdOfPeer(c) + delta);
      }
    }
    for (int k = 0; k < 40; ++k) keys.push_back(rng.NextU64());
    for (RingId key : keys) {
      const HopDecision got_hd = NextHop(rt, self, key);
      const HopDecision want_hd = ref.NextHop(self, key);
      EXPECT_EQ(got_hd.done, want_hd.done) << "trial " << trial << " key " << key;
      EXPECT_EQ(got_hd.next, want_hd.next) << "trial " << trial << " key " << key;
    }
  }
}

// Walks an iterative lookup over precomputed per-peer tables, exactly as the
// engine does (ask `cur`, follow its HopDecision). Returns the owner the
// walk terminates at; sets *hops to the number of routing steps taken.
PeerId WalkLookup(const std::vector<RoutingState>& tables, PeerId start, RingId key,
                  uint32_t* hops) {
  PeerId cur = start;
  for (uint32_t h = 0; h < 200; ++h) {
    const HopDecision hd = NextHop(tables[cur], cur, key);
    if (hd.done) {
      *hops = h;
      return hd.next == kInvalidPeer ? cur : hd.next;
    }
    cur = hd.next;
  }
  *hops = 200;
  return kInvalidPeer;  // did not converge
}

TEST(DhtLookupTest, StaticRingConvergesToTrueOwnerInLogHops) {
  constexpr size_t kPeers = 500;
  const Ring ring = Ring::Build(kPeers);
  const auto all_online = [](PeerId) { return true; };
  std::vector<RoutingState> tables(kPeers);
  for (PeerId p = 0; p < kPeers; ++p) {
    ComputeTables(ring, p, /*num_successors=*/4, /*num_fingers=*/24, all_online,
                  &tables[p]);
  }
  uint64_t total_hops = 0;
  uint32_t max_hops = 0;
  constexpr uint64_t kLookups = 500;
  for (uint64_t i = 0; i < kLookups; ++i) {
    const RingId key = RingIdOfKey(0x100001b3ULL * (i + 7));  // FNV-flavored keys
    const PeerId start = static_cast<PeerId>((i * 131) % kPeers);
    const PeerId want = ring.SuccessorOf(key, all_online);
    uint32_t hops = 0;
    EXPECT_EQ(WalkLookup(tables, start, key, &hops), want) << "lookup " << i;
    total_hops += hops;
    max_hops = std::max(max_hops, hops);
  }
  const double log_n = std::log2(static_cast<double>(kPeers));  // ~9
  EXPECT_LE(static_cast<double>(total_hops) / kLookups, 2.0 * log_n)
      << "mean hops is not O(log n)";
  EXPECT_LE(max_hops, 40u);
}

overlay::ChurnModel FuzzChurn() {
  overlay::ChurnConfig cfg;
  cfg.enabled = true;
  cfg.mean_session_s = 60.0;
  cfg.mean_offline_s = 25.0;
  return std::move(overlay::ChurnModel::Create(cfg)).ValueOrDie();
}

// The PR 10 standing invariant: after stabilization (tables recomputed from
// the churn timeline at time t), a lookup started at ANY online peer for ANY
// key terminates at the ring's true online owner — so every record the
// republish cycle placed there is findable.
TEST(DhtChurnFuzzTest, EveryKeyFindableAfterStabilization) {
  constexpr size_t kPeers = 120;
  const Ring ring = Ring::Build(kPeers);
  for (uint64_t seed : {3u, 17u, 92u}) {
    const auto timeline = overlay::ChurnTimeline::Build(
        FuzzChurn(), seed, kPeers, /*horizon=*/600 * sim::kSecond);
    for (sim::SimTime t = 50 * sim::kSecond; t <= 550 * sim::kSecond;
         t += 125 * sim::kSecond) {
      const auto online = [&](PeerId p) { return timeline.IsOnlineAt(p, t); };
      size_t online_count = 0;
      for (PeerId p = 0; p < kPeers; ++p) online_count += online(p);
      ASSERT_GT(online_count, 1u) << "degenerate churn sample";
      std::vector<RoutingState> tables(kPeers);
      for (PeerId p = 0; p < kPeers; ++p) {
        if (online(p)) ComputeTables(ring, p, 4, 24, online, &tables[p]);
      }
      for (uint64_t i = 0; i < 60; ++i) {
        const RingId key = RingIdOfKey(Mix64(seed * 1000 + i));
        const PeerId want = ring.SuccessorOf(key, online);
        // Start at every 7th online peer to cover diverse vantage points.
        for (PeerId start = static_cast<PeerId>(i % 7); start < kPeers; start += 7) {
          if (!online(start)) continue;
          uint32_t hops = 0;
          EXPECT_EQ(WalkLookup(tables, start, key, &hops), want)
              << "seed " << seed << " t " << t << " key " << i << " from " << start;
          EXPECT_LE(hops, 64u);
        }
      }
    }
  }
}

TEST(DhtChurnFuzzTest, DepartureResetKeepsSessionCounter) {
  RoutingState rt;
  rt.next_session = 41;
  rt.routes.push_back(RouteEntry{RingIdOfPeer(3), 3});
  rt.store.try_emplace(7, StoreList{});
  rt.lookups.try_emplace(99, LookupState{});
  rt.last_publish = 12345;
  rt.ResetForDeparture();
  EXPECT_TRUE(rt.routes.empty());
  EXPECT_EQ(rt.store.size(), 0u);
  EXPECT_EQ(rt.lookups.size(), 0u);
  EXPECT_EQ(rt.last_publish, kNeverPublished);
  // Session ids must never repeat across sessions of the same peer.
  EXPECT_EQ(rt.next_session, 41u);
}

core::ExperimentConfig SmallConfig(core::ProtocolKind kind, uint64_t seed) {
  core::ExperimentConfig cfg = core::MakePaperConfig(kind, /*num_queries=*/200, seed);
  cfg.num_peers = 150;
  cfg.underlay.num_routers = 40;
  cfg.catalog.num_files = 300;
  cfg.catalog.keyword_pool_size = 900;
  cfg.workload.query_rate_per_peer_s = 0.01;
  return cfg;
}

TEST(DhtEngineTest, PureDhtResolvesQueriesThroughLookups) {
  auto e = std::move(core::Engine::Create(SmallConfig(core::ProtocolKind::kDht, 7)))
               .ValueOrDie();
  e->Run();
  const metrics::Summary s = metrics::Summarize(e->metrics());
  // Every query that was not a local-store hit went through the DHT;
  // publishes moved store bytes.
  EXPECT_GT(s.dht_lookups, 150u);
  EXPECT_LE(s.dht_lookups, 200u);
  EXPECT_EQ(s.hybrid_escalations, 0u);
  EXPECT_GT(s.dht_store_msgs, 0u);
  EXPECT_GT(s.dht_store_bytes, s.dht_store_msgs * 23);  // above header floor
  EXPECT_GT(s.success_rate, 0.5);  // structured lookup finds published keys
  // Mean hops per lookup stays O(log n) for 150 peers (~7.2 bits).
  EXPECT_LT(static_cast<double>(s.dht_hops) / static_cast<double>(s.dht_lookups),
            2.0 * std::log2(150.0));
}

TEST(HybridEngineTest, EscalatesExactlyOnCacheMisses) {
  auto e = std::move(core::Engine::Create(SmallConfig(core::ProtocolKind::kHybrid, 7)))
               .ValueOrDie();
  e->Run();
  const metrics::Summary s = metrics::Summarize(e->metrics());
  // Hybrid only enters the DHT when the Locaware bloom plane has no target,
  // so lookups and escalations are the same counter — and with a cold cache
  // at the start of the run, some queries must have escalated.
  EXPECT_EQ(s.dht_lookups, s.hybrid_escalations);
  EXPECT_GT(s.hybrid_escalations, 0u);
  EXPECT_LT(s.hybrid_escalations, 200u);  // ...but the cache plane answers some
  EXPECT_GT(s.success_rate, 0.5);
}

TEST(HybridEngineTest, PaperProtocolsNeverTouchDhtCounters) {
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kFlooding, core::ProtocolKind::kLocaware}) {
    auto e = std::move(core::Engine::Create(SmallConfig(kind, 7))).ValueOrDie();
    e->Run();
    const metrics::Summary s = metrics::Summarize(e->metrics());
    EXPECT_EQ(s.dht_lookups, 0u);
    EXPECT_EQ(s.dht_hops, 0u);
    EXPECT_EQ(s.dht_store_msgs, 0u);
    EXPECT_EQ(s.dht_store_bytes, 0u);
    EXPECT_EQ(s.hybrid_escalations, 0u);
  }
}

}  // namespace
}  // namespace locaware::dht
