#include "net/underlay.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>

#include "common/rng.h"

namespace locaware::net {
namespace {

GeometricUnderlayConfig SmallConfig() {
  GeometricUnderlayConfig cfg;
  cfg.num_routers = 50;
  cfg.num_peers = 200;
  cfg.num_landmarks = 4;
  return cfg;
}

TEST(GeometricUnderlayTest, BuildSucceeds) {
  Rng rng(1);
  auto built = GeometricUnderlay::Build(SmallConfig(), &rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& u = *built.ValueOrDie();
  EXPECT_EQ(u.num_peers(), 200u);
  EXPECT_EQ(u.num_routers(), 50u);
  EXPECT_EQ(u.num_landmarks(), 4u);
  EXPECT_GT(u.num_router_edges(), 49u);  // at least a spanning structure
}

TEST(GeometricUnderlayTest, RejectsBadConfigs) {
  Rng rng(1);
  GeometricUnderlayConfig cfg = SmallConfig();
  cfg.num_routers = 0;
  EXPECT_FALSE(GeometricUnderlay::Build(cfg, &rng).ok());

  cfg = SmallConfig();
  cfg.num_peers = 0;
  EXPECT_FALSE(GeometricUnderlay::Build(cfg, &rng).ok());

  cfg = SmallConfig();
  cfg.num_landmarks = 100;  // > routers
  EXPECT_FALSE(GeometricUnderlay::Build(cfg, &rng).ok());

  cfg = SmallConfig();
  cfg.min_rtt_ms = 500;
  cfg.max_rtt_ms = 10;
  EXPECT_FALSE(GeometricUnderlay::Build(cfg, &rng).ok());

  cfg = SmallConfig();
  cfg.access_min_ms = 5;
  cfg.access_max_ms = 1;
  EXPECT_FALSE(GeometricUnderlay::Build(cfg, &rng).ok());
}

TEST(GeometricUnderlayTest, RttIsSymmetricZeroDiagonal) {
  Rng rng(2);
  auto u = std::move(GeometricUnderlay::Build(SmallConfig(), &rng)).ValueOrDie();
  for (PeerId a = 0; a < 20; ++a) {
    EXPECT_EQ(u->RttMs(a, a), 0.0);
    for (PeerId b = 0; b < 20; ++b) {
      EXPECT_DOUBLE_EQ(u->RttMs(a, b), u->RttMs(b, a));
    }
  }
}

TEST(GeometricUnderlayTest, RttsLieInConfiguredBand) {
  Rng rng(3);
  GeometricUnderlayConfig cfg = SmallConfig();
  cfg.num_peers = 300;
  auto u = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  double lo = 1e18, hi = 0;
  for (PeerId a = 0; a < 100; ++a) {
    for (PeerId b = a + 1; b < 100; ++b) {
      const double rtt = u->RttMs(a, b);
      lo = std::min(lo, rtt);
      hi = std::max(hi, rtt);
    }
  }
  // Distinct peers: RTT within ~the paper band (the normalization guarantees
  // max <= max_rtt; min is >= 4 * access_lo by construction).
  EXPECT_GE(lo, cfg.min_rtt_ms * 0.5);
  EXPECT_LE(hi, cfg.max_rtt_ms + 1e-9);
  EXPECT_GT(hi, 100.0);  // the band is actually used, not collapsed
}

TEST(GeometricUnderlayTest, TriangleInequalityOverRouterCore) {
  // Shortest-path metrics satisfy the triangle inequality on the router core.
  Rng rng(4);
  auto u = std::move(GeometricUnderlay::Build(SmallConfig(), &rng)).ValueOrDie();
  for (RouterId a = 0; a < 20; ++a) {
    for (RouterId b = 0; b < 20; ++b) {
      for (RouterId c = 0; c < 20; ++c) {
        EXPECT_LE(u->RouterLatencyMs(a, b),
                  u->RouterLatencyMs(a, c) + u->RouterLatencyMs(c, b) + 1e-9);
      }
    }
  }
}

TEST(GeometricUnderlayTest, SameRouterPeersAreClose) {
  Rng rng(5);
  GeometricUnderlayConfig cfg = SmallConfig();
  cfg.num_peers = 500;  // guarantee same-router pairs
  auto u = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  for (PeerId a = 0; a < u->num_peers(); ++a) {
    for (PeerId b = a + 1; b < u->num_peers(); ++b) {
      if (u->peer_router(a) == u->peer_router(b)) {
        EXPECT_LT(u->RttMs(a, b), 50.0);  // only two access links
        return;
      }
    }
  }
  FAIL() << "no same-router pair found";
}

TEST(GeometricUnderlayTest, PairLowerBoundIsValidAndTighterThanGlobalMin) {
  Rng rng(6);
  auto built = GeometricUnderlay::Build(SmallConfig(), &rng);
  ASSERT_TRUE(built.ok());
  const auto& u = *built.ValueOrDie();
  EXPECT_EQ(u.num_locations(), u.num_routers());
  // The property the pairwise lookahead matrix rests on: for every distinct
  // peer pair, the bound at their locations never exceeds the true RTT, and
  // never undercuts the global floor.
  bool some_pair_beats_global = false;
  for (PeerId a = 0; a < 80; ++a) {
    for (PeerId b = a + 1; b < 80; ++b) {
      const double bound = u.PairRttLowerBoundMs(u.LocationOf(a), u.LocationOf(b));
      EXPECT_LE(bound, u.RttMs(a, b) + 1e-9) << a << "," << b;
      EXPECT_GE(bound, u.MinPairRttMs() - 1e-9) << a << "," << b;
      if (bound > 2.0 * u.MinPairRttMs()) some_pair_beats_global = true;
    }
  }
  // Locality is the point: far routers must yield far tighter bounds than
  // the one global minimum.
  EXPECT_TRUE(some_pair_beats_global);
}

TEST(UniformUnderlayTest, PairLowerBoundFallsBackToGlobalMin) {
  Rng rng(6);
  UniformUnderlayConfig cfg;
  cfg.num_peers = 50;
  auto built = UniformUnderlay::Build(cfg, &rng);
  ASSERT_TRUE(built.ok());
  const auto& u = *built.ValueOrDie();
  // Geometry-free control model: one location, the global min everywhere.
  EXPECT_EQ(u.num_locations(), 1u);
  EXPECT_EQ(u.LocationOf(7), 0u);
  EXPECT_EQ(u.PairRttLowerBoundMs(0, 0), u.MinPairRttMs());
}

TEST(GeometricUnderlayTest, DeterministicForSameSeed) {
  Rng rng1(7), rng2(7);
  auto u1 = std::move(GeometricUnderlay::Build(SmallConfig(), &rng1)).ValueOrDie();
  auto u2 = std::move(GeometricUnderlay::Build(SmallConfig(), &rng2)).ValueOrDie();
  for (PeerId a = 0; a < 50; ++a) {
    for (PeerId b = 0; b < 50; ++b) {
      EXPECT_DOUBLE_EQ(u1->RttMs(a, b), u2->RttMs(a, b));
    }
  }
}

TEST(GeometricUnderlayTest, LandmarksAreSpreadApart) {
  Rng rng(8);
  auto u = std::move(GeometricUnderlay::Build(SmallConfig(), &rng)).ValueOrDie();
  // Greedy max-min placement: no two landmarks share a router.
  for (size_t i = 0; i < u->num_landmarks(); ++i) {
    for (size_t j = i + 1; j < u->num_landmarks(); ++j) {
      EXPECT_NE(u->landmark_router(i), u->landmark_router(j));
    }
  }
}

TEST(GeometricUnderlayTest, LandmarkRttPositive) {
  Rng rng(9);
  auto u = std::move(GeometricUnderlay::Build(SmallConfig(), &rng)).ValueOrDie();
  for (PeerId p = 0; p < 50; ++p) {
    for (size_t l = 0; l < u->num_landmarks(); ++l) {
      EXPECT_GT(u->LandmarkRttMs(p, l), 0.0);
    }
  }
}

TEST(GeometricUnderlayTest, SingleRouterDegenerateCase) {
  Rng rng(10);
  GeometricUnderlayConfig cfg;
  cfg.num_routers = 1;
  cfg.num_peers = 10;
  cfg.num_landmarks = 1;
  auto built = GeometricUnderlay::Build(cfg, &rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& u = *built.ValueOrDie();
  // All traffic crosses only access links.
  EXPECT_GT(u.RttMs(0, 1), 0.0);
  EXPECT_LT(u.RttMs(0, 1), 50.0);
}

TEST(GeometricUnderlayTest, DescribeMentionsShape) {
  Rng rng(11);
  auto u = std::move(GeometricUnderlay::Build(SmallConfig(), &rng)).ValueOrDie();
  const std::string desc = u->Describe();
  EXPECT_NE(desc.find("routers=50"), std::string::npos);
  EXPECT_NE(desc.find("peers=200"), std::string::npos);
}

// --- Barabási–Albert model ---

TEST(BarabasiAlbertTest, BuildsConnectedGraph) {
  Rng rng(30);
  GeometricUnderlayConfig cfg = SmallConfig();
  cfg.model = RouterGraphModel::kBarabasiAlbert;
  cfg.num_routers = 150;
  auto built = GeometricUnderlay::Build(cfg, &rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& u = *built.ValueOrDie();
  EXPECT_EQ(u.model(), RouterGraphModel::kBarabasiAlbert);
  // m=2 attachment: ~2 edges per arriving router.
  EXPECT_GE(u.num_router_edges(), 149u);
  EXPECT_LE(u.num_router_edges(), 300u);
  // Connectivity is by construction; RTTs finite and in-band.
  for (PeerId a = 0; a < 30; ++a) {
    for (PeerId b = a + 1; b < 30; ++b) {
      EXPECT_GT(u.RttMs(a, b), 0.0);
      EXPECT_LE(u.RttMs(a, b), cfg.max_rtt_ms + 1e-9);
    }
  }
}

TEST(BarabasiAlbertTest, DegreesAreHeavyTailed) {
  Rng rng(31);
  GeometricUnderlayConfig cfg = SmallConfig();
  cfg.model = RouterGraphModel::kBarabasiAlbert;
  cfg.num_routers = 300;
  auto u = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  size_t max_degree = 0;
  size_t total = 0;
  for (RouterId r = 0; r < u->num_routers(); ++r) {
    max_degree = std::max(max_degree, u->RouterDegree(r));
    total += u->RouterDegree(r);
  }
  const double mean = static_cast<double>(total) / 300.0;
  // Preferential attachment produces hubs far above the mean (a Waxman graph
  // of the same density would cap around ~3x mean).
  EXPECT_GT(static_cast<double>(max_degree), 4.0 * mean);
}

TEST(BarabasiAlbertTest, RejectsZeroAttachment) {
  Rng rng(32);
  GeometricUnderlayConfig cfg = SmallConfig();
  cfg.model = RouterGraphModel::kBarabasiAlbert;
  cfg.ba_links_per_router = 0;
  EXPECT_FALSE(GeometricUnderlay::Build(cfg, &rng).ok());
}

TEST(BarabasiAlbertTest, DescribeNamesModel) {
  Rng rng(33);
  GeometricUnderlayConfig cfg = SmallConfig();
  cfg.model = RouterGraphModel::kBarabasiAlbert;
  auto u = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  EXPECT_NE(u->Describe().find("barabasi-albert"), std::string::npos);
  EXPECT_STREQ(RouterGraphModelName(RouterGraphModel::kWaxman), "waxman");
}

// --- UniformUnderlay ---

TEST(UniformUnderlayTest, BuildAndBand) {
  Rng rng(20);
  UniformUnderlayConfig cfg;
  cfg.num_peers = 100;
  cfg.num_landmarks = 4;
  auto u = std::move(UniformUnderlay::Build(cfg, &rng)).ValueOrDie();
  for (PeerId a = 0; a < 100; ++a) {
    for (PeerId b = a + 1; b < 100; ++b) {
      const double rtt = u->RttMs(a, b);
      EXPECT_GE(rtt, cfg.min_rtt_ms);
      EXPECT_LE(rtt, cfg.max_rtt_ms);
    }
  }
}

TEST(UniformUnderlayTest, SymmetricAndStable) {
  Rng rng(21);
  UniformUnderlayConfig cfg;
  cfg.num_peers = 50;
  auto u = std::move(UniformUnderlay::Build(cfg, &rng)).ValueOrDie();
  const double first = u->RttMs(3, 17);
  EXPECT_DOUBLE_EQ(u->RttMs(17, 3), first);
  EXPECT_DOUBLE_EQ(u->RttMs(3, 17), first);  // repeated call identical
  EXPECT_EQ(u->RttMs(9, 9), 0.0);
}

TEST(UniformUnderlayTest, RejectsBadConfig) {
  Rng rng(22);
  UniformUnderlayConfig cfg;
  cfg.num_peers = 0;
  EXPECT_FALSE(UniformUnderlay::Build(cfg, &rng).ok());
  cfg.num_peers = 10;
  cfg.min_rtt_ms = 100;
  cfg.max_rtt_ms = 100;
  EXPECT_FALSE(UniformUnderlay::Build(cfg, &rng).ok());
}

/// Word-wise FNV-1a over the bit patterns of every router-pair latency,
/// row-major. Equal digests mean a bit-identical APSP table.
uint64_t ApspDigest(const GeometricUnderlay& u) {
  uint64_t h = 1469598103934665603ULL;
  for (RouterId a = 0; a < u.num_routers(); ++a) {
    for (RouterId b = 0; b < u.num_routers(); ++b) {
      h = (h ^ std::bit_cast<uint64_t>(u.RouterLatencyMs(a, b))) * 1099511628211ULL;
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The router table feeds every RTT, so any change to its bits shifts every
/// seed's results. The goldens come from Dijkstra kernels (a lazy-deletion
/// binary heap; the three long-path shapes an indexed 4-ary heap); a kernel
/// rewrite must reproduce them exactly (the GeometricUnderlay comment in
/// underlay.h says which rewrites can and which cannot).
TEST(GeometricUnderlayTest, ApspTableIsPinnedBitForBit) {
  struct Golden {
    RouterGraphModel model;
    size_t routers;
    uint64_t seed;
    uint64_t digest;
    double waxman_alpha = 0.15;
    size_t ba_links = 2;
  };
  const Golden kGoldens[] = {
      {RouterGraphModel::kWaxman, 1, 1, 0x44bd2bd473ccf799ULL},
      {RouterGraphModel::kWaxman, 1, 2, 0x44bd2bd473ccf799ULL},
      {RouterGraphModel::kWaxman, 1, 3, 0x44bd2bd473ccf799ULL},
      {RouterGraphModel::kWaxman, 2, 1, 0x710fc6a086a23133ULL},
      {RouterGraphModel::kWaxman, 2, 2, 0x6869b1a081bd15b1ULL},
      {RouterGraphModel::kWaxman, 2, 3, 0x710fc6a086a23133ULL},
      {RouterGraphModel::kWaxman, 50, 1, 0xdc8bbfe04ff4e4ebULL},
      {RouterGraphModel::kWaxman, 50, 2, 0xa8df60e1102ece31ULL},
      {RouterGraphModel::kWaxman, 50, 3, 0xab94a6353408c0a1ULL},
      {RouterGraphModel::kWaxman, 400, 1, 0xbb6df0351d75af0fULL},
      {RouterGraphModel::kWaxman, 400, 2, 0x93a25d650059ef8bULL},
      {RouterGraphModel::kWaxman, 400, 3, 0xc66e0f4286a2c995ULL},
      {RouterGraphModel::kBarabasiAlbert, 1, 1, 0x44bd2bd473ccf799ULL},
      {RouterGraphModel::kBarabasiAlbert, 1, 2, 0x44bd2bd473ccf799ULL},
      {RouterGraphModel::kBarabasiAlbert, 1, 3, 0x44bd2bd473ccf799ULL},
      {RouterGraphModel::kBarabasiAlbert, 2, 1, 0x710fc6a086a23133ULL},
      {RouterGraphModel::kBarabasiAlbert, 2, 2, 0x6869b1a081bd15b1ULL},
      {RouterGraphModel::kBarabasiAlbert, 2, 3, 0x710fc6a086a23133ULL},
      {RouterGraphModel::kBarabasiAlbert, 50, 1, 0x61fb9d210497db17ULL},
      {RouterGraphModel::kBarabasiAlbert, 50, 2, 0xc73177a0f9b06f99ULL},
      {RouterGraphModel::kBarabasiAlbert, 50, 3, 0xdc0058a91fa307c4ULL},
      {RouterGraphModel::kBarabasiAlbert, 400, 1, 0x04a77e6086d3c16bULL},
      {RouterGraphModel::kBarabasiAlbert, 400, 2, 0xe0d30a397d7a6e9fULL},
      {RouterGraphModel::kBarabasiAlbert, 400, 3, 0x06db1ce2b13beb4bULL},
      // Shapes with long shortest paths, which need the most relaxation
      // sweeps: a Barabási–Albert tree, a sparse Waxman graph, 1000 routers.
      {RouterGraphModel::kBarabasiAlbert, 400, 1, 0xb2a3eebf36acee46ULL, 0.15, 1},
      {RouterGraphModel::kWaxman, 400, 1, 0x8107d15b3d59dc78ULL, 0.03},
      {RouterGraphModel::kWaxman, 1000, 1, 0xf8892b73b16825d0ULL},
  };
  for (const Golden& g : kGoldens) {
    GeometricUnderlayConfig cfg;
    cfg.model = g.model;
    cfg.num_routers = g.routers;
    cfg.waxman_alpha = g.waxman_alpha;
    cfg.ba_links_per_router = g.ba_links;
    cfg.num_peers = 100;
    cfg.num_landmarks = 1;
    Rng rng(g.seed);
    auto built = GeometricUnderlay::Build(cfg, &rng);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(Hex(ApspDigest(*built.ValueOrDie())), Hex(g.digest))
        << RouterGraphModelName(g.model) << "/" << g.routers << "/" << g.seed << "/alpha="
        << g.waxman_alpha << "/m=" << g.ba_links;
  }

  // The end-to-end benchmark's underlay: the 10k-peer workloads' network.
  GeometricUnderlayConfig e2e;
  e2e.num_routers = 400;
  e2e.num_peers = 10000;
  Rng e2e_rng = Rng(42).Split("underlay");
  auto built = GeometricUnderlay::Build(e2e, &e2e_rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(Hex(ApspDigest(*built.ValueOrDie())), Hex(0xf7e03942eab55856ULL));
}

class UnderlayScaleTest : public ::testing::TestWithParam<size_t> {};

/// Property: the geometric build stays connected and in-band across router
/// counts (the Waxman graph gets patched whatever its density).
TEST_P(UnderlayScaleTest, AlwaysConnectedAndInBand) {
  Rng rng(100 + GetParam());
  GeometricUnderlayConfig cfg;
  cfg.num_routers = GetParam();
  cfg.num_peers = 100;
  cfg.num_landmarks = std::min<size_t>(4, GetParam());
  auto built = GeometricUnderlay::Build(cfg, &rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& u = *built.ValueOrDie();
  for (PeerId a = 0; a < 30; ++a) {
    for (PeerId b = a + 1; b < 30; ++b) {
      const double rtt = u.RttMs(a, b);
      EXPECT_GT(rtt, 0.0);
      EXPECT_LE(rtt, cfg.max_rtt_ms + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RouterCounts, UnderlayScaleTest,
                         ::testing::Values(2, 5, 20, 100, 400));

}  // namespace
}  // namespace locaware::net
