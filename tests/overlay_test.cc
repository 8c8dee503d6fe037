#include "overlay/overlay_graph.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "overlay/churn.h"
#include "overlay/message.h"

namespace locaware::overlay {
namespace {

OverlayConfig PaperOverlay(size_t n = 1000) {
  OverlayConfig cfg;
  cfg.num_peers = n;
  cfg.avg_degree = 3.0;
  return cfg;
}

TEST(OverlayGraphTest, GeneratesConnectedGraphWithTargetDegree) {
  Rng rng(1);
  auto g = std::move(OverlayGraph::Generate(PaperOverlay(), &rng)).ValueOrDie();
  EXPECT_EQ(g.num_peers(), 1000u);
  EXPECT_EQ(g.num_alive(), 1000u);
  EXPECT_TRUE(g.IsConnected());
  // Bridges added for connectivity may push the average slightly above 3.
  EXPECT_GE(g.AverageDegree(), 3.0);
  EXPECT_LE(g.AverageDegree(), 3.6);
}

TEST(OverlayGraphTest, AdjacencyIsSymmetric) {
  Rng rng(2);
  auto g = std::move(OverlayGraph::Generate(PaperOverlay(200), &rng)).ValueOrDie();
  for (PeerId p = 0; p < g.num_peers(); ++p) {
    for (PeerId nb : g.Neighbors(p)) {
      EXPECT_TRUE(g.AreNeighbors(nb, p)) << p << "<->" << nb;
    }
  }
}

TEST(OverlayGraphTest, NoSelfLoopsOrParallelEdges) {
  Rng rng(3);
  auto g = std::move(OverlayGraph::Generate(PaperOverlay(300), &rng)).ValueOrDie();
  for (PeerId p = 0; p < g.num_peers(); ++p) {
    std::set<PeerId> seen;
    for (PeerId nb : g.Neighbors(p)) {
      EXPECT_NE(nb, p);
      EXPECT_TRUE(seen.insert(nb).second) << "parallel edge at " << p;
    }
  }
}

TEST(OverlayGraphTest, RejectsBadConfigs) {
  Rng rng(4);
  OverlayConfig cfg;
  cfg.num_peers = 0;
  EXPECT_FALSE(OverlayGraph::Generate(cfg, &rng).ok());
  cfg.num_peers = 10;
  cfg.avg_degree = 0.5;
  EXPECT_FALSE(OverlayGraph::Generate(cfg, &rng).ok());
}

TEST(OverlayGraphTest, SinglePeerGraph) {
  Rng rng(5);
  OverlayConfig cfg;
  cfg.num_peers = 1;
  cfg.avg_degree = 0.0;
  auto g = std::move(OverlayGraph::Generate(cfg, &rng)).ValueOrDie();
  EXPECT_TRUE(g.IsConnected());
  EXPECT_EQ(g.Degree(0), 0u);
}

/// Takes `p` offline and delivers its LinkDrops: every neighbor removes its
/// half toward `p`, as the engine's churn path does. Returns the dropped
/// neighbors.
std::vector<PeerId> Depart(OverlayGraph& g, PeerId p) {
  const uint32_t epoch = g.session_epoch(p);
  const std::vector<PeerId> dropped = g.GoOffline(p);
  for (PeerId nb : dropped) EXPECT_TRUE(g.RemoveHalfLink(nb, p, epoch));
  return dropped;
}

/// Links a and b the way a completed LinkProbe/LinkAccept handshake does:
/// each side installs its own half, stamped with the other's session.
bool Link(OverlayGraph& g, PeerId a, PeerId b) {
  const bool added = g.AddHalfLink(a, b, g.session_epoch(b));
  EXPECT_EQ(g.AddHalfLink(b, a, g.session_epoch(a)), added);
  return added;
}

TEST(OverlayGraphTest, AddRemoveLink) {
  Rng rng(6);
  auto g = std::move(OverlayGraph::Generate(PaperOverlay(50), &rng)).ValueOrDie();
  // Find a non-adjacent pair.
  PeerId a = 0, b = kInvalidPeer;
  for (PeerId cand = 1; cand < 50; ++cand) {
    if (!g.AreNeighbors(0, cand)) {
      b = cand;
      break;
    }
  }
  ASSERT_NE(b, kInvalidPeer);
  const size_t links = g.num_links();
  EXPECT_TRUE(Link(g, a, b));
  EXPECT_EQ(g.num_links(), links + 1);
  EXPECT_TRUE(g.AreNeighbors(a, b) && g.AreNeighbors(b, a));
  EXPECT_FALSE(Link(g, a, b)) << "duplicate link must be rejected";
  EXPECT_FALSE(g.AddHalfLink(a, a, 0)) << "self loop must be rejected";
  EXPECT_TRUE(g.RemoveHalfLink(a, b, g.session_epoch(b)));
  EXPECT_TRUE(g.RemoveHalfLink(b, a, g.session_epoch(a)));
  EXPECT_FALSE(g.RemoveHalfLink(a, b, g.session_epoch(b)));
  EXPECT_EQ(g.num_links(), links);
}

TEST(OverlayGraphTest, DepartDropsAllLinksAndReportsThem) {
  Rng rng(8);
  auto g = std::move(OverlayGraph::Generate(PaperOverlay(100), &rng)).ValueOrDie();
  PeerId victim = 0;
  for (PeerId p = 0; p < 100; ++p) {
    if (g.Degree(p) >= 2) {
      victim = p;
      break;
    }
  }
  const auto before = g.Neighbors(victim);
  const auto dropped = Depart(g, victim);
  EXPECT_EQ(dropped, before.ToVector());
  EXPECT_FALSE(g.IsAlive(victim));
  EXPECT_EQ(g.Degree(victim), 0u);
  EXPECT_EQ(g.num_alive(), 99u);
  for (PeerId nb : dropped) EXPECT_FALSE(g.AreNeighbors(nb, victim));
}

TEST(OverlayGraphTest, LinksToOfflinePeersAreRejected) {
  Rng rng(9);
  auto g = std::move(OverlayGraph::Generate(PaperOverlay(20), &rng)).ValueOrDie();
  Depart(g, 5);
  // An offline peer holds no links: installing a half there is a bug the
  // engine's session checks must have caught first.
  EXPECT_DEATH(g.AddHalfLink(5, 6, g.session_epoch(6)), "offline");
  EXPECT_EQ(g.Degree(5), 0u);
}

TEST(OverlayGraphTest, JoinRestoresAndRelinks) {
  Rng rng(10);
  auto g = std::move(OverlayGraph::Generate(PaperOverlay(100), &rng)).ValueOrDie();
  Depart(g, 7);
  g.GoOnline(7);
  EXPECT_TRUE(g.IsAlive(7));
  EXPECT_EQ(g.Degree(7), 0u);
  EXPECT_EQ(g.session_epoch(7), 1u);
  for (PeerId nb : {20u, 40u, 60u}) EXPECT_TRUE(Link(g, 7, nb));
  EXPECT_EQ(g.Degree(7), 3u);
  for (PeerId nb : g.Neighbors(7)) EXPECT_TRUE(g.AreNeighbors(nb, 7));
  EXPECT_EQ(g.num_alive(), 100u);
}

TEST(OverlayGraphTest, DoubleDepartOrJoinDies) {
  Rng rng(11);
  auto g = std::move(OverlayGraph::Generate(PaperOverlay(10), &rng)).ValueOrDie();
  g.GoOffline(3);
  EXPECT_DEATH(g.GoOffline(3), "offline");
  g.GoOnline(3);
  EXPECT_DEATH(g.GoOnline(3), "online");
}

TEST(OverlayGraphTest, LargestComponentFractionUnderFragmentation) {
  Rng rng(12);
  OverlayConfig cfg = PaperOverlay(100);
  auto g = std::move(OverlayGraph::Generate(cfg, &rng)).ValueOrDie();
  EXPECT_DOUBLE_EQ(g.LargestComponentFraction(), 1.0);
  // Remove a third of the peers: the fraction stays a valid ratio over the
  // alive population.
  for (PeerId p = 0; p < 33; ++p) Depart(g, p);
  const double frac = g.LargestComponentFraction();
  EXPECT_GT(frac, 0.0);
  EXPECT_LE(frac, 1.0);
}

TEST(OverlayGraphTest, DeterministicForSeed) {
  Rng r1(13), r2(13);
  auto g1 = std::move(OverlayGraph::Generate(PaperOverlay(100), &r1)).ValueOrDie();
  auto g2 = std::move(OverlayGraph::Generate(PaperOverlay(100), &r2)).ValueOrDie();
  for (PeerId p = 0; p < 100; ++p) EXPECT_EQ(g1.Neighbors(p), g2.Neighbors(p));
}

/// FNV-1a over 32-bit values, byte by byte.
uint64_t FnvMix(uint64_t h, uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(OverlayGraphTest, GeneratedAdjacencyAndLinkEpochsArePinned) {
  // Digests of every adjacency row and every link-epoch row (length, then
  // entries) of the generated random graph, recorded before link epochs
  // were filled once instead of per AddLink. A change to the draws, the
  // bridging, or the row layout moves these.
  struct Pinned {
    size_t peers;
    uint64_t seed;
    uint64_t adjacency_fnv;
    uint64_t epoch_fnv;
  };
  constexpr Pinned kPinned[] = {
      {200, 1, 0x47f3d5bddb9d6209ull, 0x7103ee5569d51af5ull},
      {200, 7, 0xe9545ab14f54b6e4ull, 0x1743a961d1815853ull},
      {200, 42, 0x39f40c1b8b86ff0bull, 0x7bc655afb52e005dull},
      {3000, 1, 0x21cb612cbe9e5cd5ull, 0x7e008793c8e49051ull},
      {3000, 7, 0x215d3176e7ddc132ull, 0x2b3a7ce344b314b7ull},
      {3000, 42, 0xc39d9fee20bd3ebdull, 0xcdbd4579a32e91fdull},
  };
  for (const Pinned& pin : kPinned) {
    Rng rng(pin.seed);
    auto g = std::move(OverlayGraph::Generate(PaperOverlay(pin.peers), &rng)).ValueOrDie();
    uint64_t adjacency = 0xcbf29ce484222325ull;
    uint64_t epochs = 0xcbf29ce484222325ull;
    for (PeerId p = 0; p < pin.peers; ++p) {
      adjacency = FnvMix(adjacency, static_cast<uint32_t>(g.Neighbors(p).size()));
      for (PeerId nb : g.Neighbors(p)) adjacency = FnvMix(adjacency, nb);
      epochs = FnvMix(epochs, static_cast<uint32_t>(g.LinkEpochs(p).size()));
      for (uint32_t e : g.LinkEpochs(p)) epochs = FnvMix(epochs, e);
    }
    EXPECT_EQ(adjacency, pin.adjacency_fnv) << pin.peers << " peers, seed " << pin.seed;
    EXPECT_EQ(epochs, pin.epoch_fnv) << pin.peers << " peers, seed " << pin.seed;
  }
}

// --- messages ---

/// Deterministic stand-in for the catalog's string tables: every keyword is
/// charged as a 5-byte word, every filename as "kw kw kw" (17 bytes).
struct FakeNames : WireNames {
  size_t KeywordWireBytes(KeywordId /*kw*/) const override { return 5; }
  size_t FilenameWireBytes(FileId /*f*/) const override { return 17; }
};

TEST(MessageTest, QuerySizeGrowsWithKeywords) {
  const FakeNames names;
  QueryMessage q;
  q.keywords = {1};
  const size_t small = EstimateSizeBytes(q, names);
  q.keywords = {1, 2, 3};
  EXPECT_EQ(EstimateSizeBytes(q, names), small + 2 * 6);  // 2 more 5-byte words
  EXPECT_GT(small, 23u);  // at least a Gnutella header
}

TEST(MessageTest, ResponseSizeGrowsWithProviders) {
  const FakeNames names;
  ResponseMessage m;
  ResponseRecord rec;
  rec.file = 7;
  rec.providers = {{1, 0}};
  m.records.push_back(rec);
  const size_t one = EstimateSizeBytes(m, names);
  m.records[0].providers.push_back({2, 1});
  m.records[0].providers.push_back({3, 2});
  EXPECT_EQ(EstimateSizeBytes(m, names), one + 2 * 7);  // 2 more (addr+locId)
}

TEST(MessageTest, BloomUpdateSizeMatchesDeltaEncoding) {
  BloomUpdateMessage m;
  m.filter_bits = 1200;
  m.toggled_positions = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  // 12 positions * 11 bits + 16-bit header = 148 bits = 19 bytes + 29 header.
  EXPECT_EQ(EstimateSizeBytes(m), 29u + 19u);
}

TEST(MessageTest, ProbeIsTiny) {
  EXPECT_LT(EstimateSizeBytes(ProbeMessage{}), 40u);
}

TEST(MessageTest, LinkHandshakeSizesChargeFilterOnlyWhenCarried) {
  const LinkDropMessage drop{3, 1};
  EXPECT_EQ(EstimateSizeBytes(drop), 23u + 6u + 4u);

  LinkProbeMessage probe;
  probe.from.peer = 3;
  const size_t bare = EstimateSizeBytes(probe);
  EXPECT_EQ(bare, 23u + 6u + 2u + 4u + 2u);  // header + addr + gid + epoch + degree
  probe.from.filter = bloom::BloomFilter(1200, 4);
  // Locaware's announce ships the whole 1200-bit filter: +4 shape + 150 bytes.
  EXPECT_EQ(EstimateSizeBytes(probe), bare + 4u + 150u);

  LinkAcceptMessage accept;
  accept.from.peer = 4;
  EXPECT_EQ(EstimateSizeBytes(accept), bare + 4u);  // + echoed prober epoch
}

// --- owner-partitioned half-links (message-routed churn) ---

/// A fully-linked 6-peer graph for half-link surgery.
OverlayGraph SmallGraph() {
  Rng rng(11);
  OverlayConfig cfg;
  cfg.num_peers = 6;
  cfg.avg_degree = 2.5;
  return std::move(OverlayGraph::Generate(cfg, &rng)).ValueOrDie();
}

TEST(OverlayHalfLinkTest, GoOfflineClearsOnlyOwnSide) {
  OverlayGraph g = SmallGraph();
  const PeerId victim = 0;
  ASSERT_GT(g.Degree(victim), 0u);
  const std::vector<PeerId> dropped = g.GoOffline(victim);
  EXPECT_FALSE(g.IsAlive(victim));
  EXPECT_EQ(g.Degree(victim), 0u);
  // Neighbors still hold their half until a LinkDrop-equivalent removes it.
  for (PeerId nb : dropped) {
    EXPECT_TRUE(g.HasHalfLink(nb, victim)) << nb;
    EXPECT_TRUE(g.RemoveHalfLink(nb, victim, g.session_epoch(victim)));
    EXPECT_FALSE(g.HasHalfLink(nb, victim));
  }
}

TEST(OverlayHalfLinkTest, EpochGuardsStaleDrops) {
  OverlayGraph g = SmallGraph();
  const std::vector<PeerId> dropped = g.GoOffline(0);
  ASSERT_FALSE(dropped.empty());
  const PeerId nb = dropped.front();
  g.GoOnline(0);  // epoch 1
  // The new session re-establishes the link before the old drop arrives.
  EXPECT_TRUE(g.RemoveHalfLink(nb, 0, /*max_epoch=*/0));  // old half dissolves
  EXPECT_TRUE(g.AddHalfLink(nb, 0, g.session_epoch(0)));
  // The stale LinkDrop (epoch 0) must NOT tear down the epoch-1 link...
  EXPECT_FALSE(g.RemoveHalfLink(nb, 0, /*max_epoch=*/0));
  EXPECT_TRUE(g.HasHalfLink(nb, 0));
  // ...but a drop naming the current session does.
  EXPECT_TRUE(g.RemoveHalfLink(nb, 0, /*max_epoch=*/1));
}

TEST(OverlayHalfLinkTest, AddHalfLinkRefreshesEpochForExistingEdge) {
  OverlayGraph g = SmallGraph();
  ASSERT_TRUE(g.AddHalfLink(1, 4, 0) || g.HasHalfLink(1, 4));
  EXPECT_FALSE(g.AddHalfLink(1, 4, 3));  // exists: refresh, not duplicate
  // After the refresh, an epoch-2 drop is stale.
  EXPECT_FALSE(g.RemoveHalfLink(1, 4, 2));
  EXPECT_TRUE(g.RemoveHalfLink(1, 4, 3));
}

TEST(OverlayHalfLinkTest, JoinAndGoOnlineAdvanceSessionEpoch) {
  OverlayGraph g = SmallGraph();
  EXPECT_EQ(g.session_epoch(2), 0u);
  g.GoOffline(2);
  g.GoOnline(2);
  EXPECT_EQ(g.session_epoch(2), 1u);
  g.GoOffline(2);
  g.GoOnline(2);
  EXPECT_EQ(g.session_epoch(2), 2u);
}

TEST(OverlayHalfLinkTest, DanglingHalfEdgesStayOutOfComponents) {
  OverlayGraph g = SmallGraph();
  const std::vector<PeerId> dropped = g.GoOffline(0);
  ASSERT_FALSE(dropped.empty());
  // Neighbors' dangling half-edges toward the dead peer must not resurrect it
  // in connectivity accounting.
  EXPECT_EQ(g.num_alive(), 5u);
  EXPECT_LE(g.LargestComponentFraction(), 1.0);
}

TEST(OverlayHalfLinkTest, CountsFollowEveryHalfLinkOp) {
  // num_alive() and num_links() against counts kept by hand through each
  // owner op. A dangling half-edge makes the half-edge total odd, and
  // num_links() rounds that half link down.
  OverlayGraph g = SmallGraph();
  size_t alive = g.num_peers();
  size_t half_edges = 0;
  for (PeerId p = 0; p < g.num_peers(); ++p) half_edges += g.Degree(p);
  bool saw_odd = false;
  const auto expect_counts = [&](const char* step) {
    EXPECT_EQ(g.num_alive(), alive) << step;
    EXPECT_EQ(g.num_links(), half_edges / 2) << step;
    saw_odd |= half_edges % 2 == 1;
  };
  expect_counts("generated");

  const std::vector<PeerId> dropped = g.GoOffline(0);
  ASSERT_FALSE(dropped.empty());
  --alive;
  half_edges -= dropped.size();
  expect_counts("GoOffline");

  // One neighbor's half toward the departed peer dissolves; the others
  // still dangle.
  ASSERT_TRUE(g.RemoveHalfLink(dropped.front(), 0, g.session_epoch(0)));
  --half_edges;
  expect_counts("RemoveHalfLink");

  // A one-sided half between two live peers, as while a LinkAccept is in
  // flight.
  PeerId a = 1, b = 2;
  while (g.HasHalfLink(a, b)) {
    if (++b == g.num_peers()) b = ++a + 1;
    ASSERT_LT(b, g.num_peers());
  }
  ASSERT_TRUE(g.AddHalfLink(a, b, g.session_epoch(b)));
  ++half_edges;
  expect_counts("AddHalfLink");
  EXPECT_FALSE(g.AddHalfLink(a, b, g.session_epoch(b)));  // refresh only
  expect_counts("AddHalfLink refresh");

  g.GoOnline(0);
  ++alive;
  expect_counts("GoOnline");
  EXPECT_TRUE(saw_odd);
}

// --- churn model ---

TEST(ChurnModelTest, DisabledByDefaultConstructible) {
  ChurnModel model;
  EXPECT_FALSE(model.config().enabled);
}

TEST(ChurnModelTest, RejectsBadEnabledConfigs) {
  ChurnConfig cfg;
  cfg.enabled = true;
  cfg.mean_session_s = 0;
  EXPECT_FALSE(ChurnModel::Create(cfg).ok());
  cfg.mean_session_s = 10;
  cfg.mean_offline_s = -1;
  EXPECT_FALSE(ChurnModel::Create(cfg).ok());
  cfg.mean_offline_s = 10;
  cfg.rejoin_links = 0;
  EXPECT_FALSE(ChurnModel::Create(cfg).ok());
}

// --- churn timeline ---

ChurnModel FastChurn() {
  ChurnConfig cfg;
  cfg.enabled = true;
  cfg.mean_session_s = 50.0;
  cfg.mean_offline_s = 20.0;
  return std::move(ChurnModel::Create(cfg)).ValueOrDie();
}

TEST(ChurnTimelineTest, TransitionsAlternateFromOnline) {
  const auto timeline =
      ChurnTimeline::Build(FastChurn(), /*seed=*/9, /*num_peers=*/40,
                           /*horizon=*/1000 * sim::kSecond);
  for (PeerId p = 0; p < 40; ++p) {
    const auto& trans = timeline.transitions(p);
    ASSERT_FALSE(trans.empty()) << "peer " << p << " never churns in 1000 s";
    EXPECT_TRUE(std::is_sorted(trans.begin(), trans.end()));
    EXPECT_TRUE(timeline.IsOnlineAt(p, 0));
    // Offline at exactly a departure instant, online at exactly a rejoin.
    for (size_t i = 0; i < trans.size(); ++i) {
      EXPECT_EQ(timeline.IsOnlineAt(p, trans[i]), i % 2 == 1) << p << "@" << i;
    }
  }
}

TEST(ChurnTimelineTest, SessionEpochCountsRejoins) {
  const auto timeline =
      ChurnTimeline::Build(FastChurn(), 9, 10, 1000 * sim::kSecond);
  for (PeerId p = 0; p < 10; ++p) {
    const auto& trans = timeline.transitions(p);
    EXPECT_EQ(timeline.SessionEpochAt(p, 0), 0u);
    for (size_t i = 0; i < trans.size(); ++i) {
      // Epoch advances exactly at each rejoin (odd index) and mirrors what
      // OverlayGraph::session_epoch tracks on the owner shard.
      EXPECT_EQ(timeline.SessionEpochAt(p, trans[i]),
                static_cast<uint32_t>((i + 1) / 2))
          << "peer " << p << " transition " << i;
    }
  }
}

TEST(ChurnTimelineTest, PureFunctionOfSeed) {
  const auto a = ChurnTimeline::Build(FastChurn(), 7, 20, 500 * sim::kSecond);
  const auto b = ChurnTimeline::Build(FastChurn(), 7, 20, 500 * sim::kSecond);
  const auto c = ChurnTimeline::Build(FastChurn(), 8, 20, 500 * sim::kSecond);
  size_t diverged = 0;
  for (PeerId p = 0; p < 20; ++p) {
    EXPECT_EQ(a.transitions(p), b.transitions(p)) << "peer " << p;
    diverged += (a.transitions(p) != c.transitions(p));
  }
  EXPECT_GT(diverged, 15u) << "seed barely perturbs the schedule";
}

TEST(ChurnTimelineTest, LongerHorizonExtendsNotRewrites) {
  // Stable per-(peer, cycle) streams: generating further must keep the
  // earlier transitions bit-identical (the property that lets any shard
  // evaluate liveness without coordination).
  const auto small = ChurnTimeline::Build(FastChurn(), 3, 10, 200 * sim::kSecond);
  const auto large = ChurnTimeline::Build(FastChurn(), 3, 10, 2000 * sim::kSecond);
  for (PeerId p = 0; p < 10; ++p) {
    const auto& a = small.transitions(p);
    const auto& b = large.transitions(p);
    ASSERT_GE(b.size(), a.size());
    for (size_t i = 0; i + 1 < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "peer " << p << " transition " << i;
    }
  }
}

TEST(ChurnTimelineTest, DisabledModelKeepsEveryoneOnline) {
  const auto timeline =
      ChurnTimeline::Build(ChurnModel(), 5, 8, 1000 * sim::kSecond);
  for (PeerId p = 0; p < 8; ++p) {
    EXPECT_TRUE(timeline.transitions(p).empty());
    EXPECT_TRUE(timeline.IsOnlineAt(p, 999 * sim::kSecond));
  }
}

TEST(ChurnModelTest, SampleMeansMatchConfig) {
  ChurnConfig cfg;
  cfg.enabled = true;
  cfg.mean_session_s = 100.0;
  cfg.mean_offline_s = 25.0;
  auto model = std::move(ChurnModel::Create(cfg)).ValueOrDie();
  Rng rng(17);
  double session_sum = 0, offline_sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    session_sum += sim::ToSeconds(model.SampleSession(&rng));
    offline_sum += sim::ToSeconds(model.SampleOffline(&rng));
  }
  EXPECT_NEAR(session_sum / kSamples, 100.0, 3.0);
  EXPECT_NEAR(offline_sum / kSamples, 25.0, 1.0);
}

class OverlayDegreeTest : public ::testing::TestWithParam<double> {};

/// Property: generation realizes (approximately) the requested average degree
/// and always produces a connected graph.
TEST_P(OverlayDegreeTest, RealizesRequestedDegree) {
  Rng rng(100);
  OverlayConfig cfg;
  cfg.num_peers = 500;
  cfg.avg_degree = GetParam();
  auto g = std::move(OverlayGraph::Generate(cfg, &rng)).ValueOrDie();
  EXPECT_TRUE(g.IsConnected());
  EXPECT_NEAR(g.AverageDegree(), GetParam(), GetParam() * 0.25 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Degrees, OverlayDegreeTest,
                         ::testing::Values(2.0, 3.0, 4.0, 6.0, 10.0));

}  // namespace
}  // namespace locaware::overlay
