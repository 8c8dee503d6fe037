#include "net/landmark.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/underlay.h"

namespace locaware::net {
namespace {

TEST(NumLocIdsTest, Factorials) {
  EXPECT_EQ(NumLocIds(0), 1u);
  EXPECT_EQ(NumLocIds(1), 1u);
  EXPECT_EQ(NumLocIds(2), 2u);
  EXPECT_EQ(NumLocIds(4), 24u);   // the paper's headline setting
  EXPECT_EQ(NumLocIds(5), 120u);  // the paper's "too scattered" setting
  EXPECT_EQ(NumLocIds(8), 40320u);
}

TEST(NumLocIdsTest, TooManyLandmarksDies) {
  EXPECT_DEATH(NumLocIds(9), "overflow");
}

TEST(LocIdCodecTest, RankOfIdentityIsZero) {
  EXPECT_EQ(LocIdCodec::PermutationRank({0, 1, 2, 3}), 0u);
}

TEST(LocIdCodecTest, RankOfReverseIsMax) {
  EXPECT_EQ(LocIdCodec::PermutationRank({3, 2, 1, 0}), 23u);
}

TEST(LocIdCodecTest, KnownLexicographicOrder) {
  // Lehmer ranking is lexicographic: 0123=0, 0132=1, 0213=2, ...
  EXPECT_EQ(LocIdCodec::PermutationRank({0, 1, 3, 2}), 1u);
  EXPECT_EQ(LocIdCodec::PermutationRank({0, 2, 1, 3}), 2u);
  EXPECT_EQ(LocIdCodec::PermutationRank({1, 0, 2, 3}), 6u);
}

TEST(LocIdCodecTest, RoundTripAllPermutationsOfFour) {
  for (uint32_t rank = 0; rank < 24; ++rank) {
    const auto perm = LocIdCodec::RankToPermutation(rank, 4);
    EXPECT_EQ(LocIdCodec::PermutationRank(perm), rank);
  }
}

TEST(LocIdCodecTest, RoundTripIsBijective) {
  // Each permutation of 0..4 is keyed by its base-5 digits, an injective
  // code (a set of byte vectors would compare through memcmp, on which
  // gcc 12 reports a false -Wstringop-overread in optimized builds).
  std::set<uint32_t> perms;
  for (uint32_t rank = 0; rank < 120; ++rank) {
    const std::vector<uint8_t> perm = LocIdCodec::RankToPermutation(rank, 5);
    ASSERT_EQ(perm.size(), 5u);
    uint32_t code = 0;
    for (uint8_t d : perm) {
      ASSERT_LT(d, 5u);
      code = code * 5 + d;
    }
    perms.insert(code);
  }
  EXPECT_EQ(perms.size(), 120u);
}

TEST(LocIdCodecTest, RejectsNonPermutations) {
  EXPECT_DEATH(LocIdCodec::PermutationRank({0, 0, 1}), "duplicate");
  EXPECT_DEATH(LocIdCodec::PermutationRank({0, 3}), "out of range");
  EXPECT_DEATH(LocIdCodec::RankToPermutation(24, 4), "CHECK");
}

TEST(LocIdCodecTest, EmptyAndSingleton) {
  EXPECT_EQ(LocIdCodec::PermutationRank({}), 0u);
  EXPECT_EQ(LocIdCodec::PermutationRank({0}), 0u);
  EXPECT_EQ(LocIdCodec::RankToPermutation(0, 1), std::vector<uint8_t>{0});
}

class LocIdFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    GeometricUnderlayConfig cfg;
    cfg.num_routers = 100;
    cfg.num_peers = 1000;
    cfg.num_landmarks = 4;
    underlay_ = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  }

  std::unique_ptr<GeometricUnderlay> underlay_;
};

TEST_F(LocIdFixture, LocIdsAreWithinRange) {
  for (const LocId id : ComputeAllLocIds(*underlay_)) EXPECT_LT(id, 24u);
}

TEST_F(LocIdFixture, SameRouterPeersShareLocId) {
  // Peers on the same router have identical landmark paths up to access
  // latency, so their RTT *ordering* (hence locId) must agree.
  const auto ids = ComputeAllLocIds(*underlay_);
  int pairs = 0;
  for (PeerId a = 0; a < 200 && pairs < 10; ++a) {
    for (PeerId b = a + 1; b < 200; ++b) {
      if (underlay_->peer_router(a) == underlay_->peer_router(b)) {
        EXPECT_EQ(ids[a], ids[b]) << "peers " << a << "," << b;
        ++pairs;
        break;
      }
    }
  }
  EXPECT_GT(pairs, 0);
}

TEST_F(LocIdFixture, PopulationMatchesPaperExpectation) {
  // Paper §5.1: with 4 landmarks over 1000 peers, localities hold tens of
  // peers each (vs ~8 at 5 landmarks), making same-locId providers findable.
  const auto ids = ComputeAllLocIds(*underlay_);
  const LocIdStats stats = AnalyzeLocIds(ids, 4);
  EXPECT_EQ(stats.num_possible, 24u);
  EXPECT_GT(stats.num_inhabited, 2u);
  EXPECT_GT(stats.mean_peers_per_inhabited, 10.0);
  EXPECT_LE(stats.num_inhabited, 24u);
}

TEST_F(LocIdFixture, DeterministicAssignment) {
  const auto a = ComputeAllLocIds(*underlay_);
  const auto b = ComputeAllLocIds(*underlay_);
  EXPECT_EQ(a, b);
}

TEST(LocIdUniformTest, UniformUnderlayScattersLocIds) {
  // With i.i.d. landmark RTTs every ordering is equally likely: all 24 locIds
  // should be inhabited for 1000 peers (coupon collector argument).
  Rng rng(123);
  UniformUnderlayConfig cfg;
  cfg.num_peers = 1000;
  cfg.num_landmarks = 4;
  auto u = std::move(UniformUnderlay::Build(cfg, &rng)).ValueOrDie();
  const LocIdStats stats = AnalyzeLocIds(ComputeAllLocIds(*u), 4);
  EXPECT_EQ(stats.num_inhabited, 24u);
  EXPECT_NEAR(stats.mean_peers_per_inhabited, 1000.0 / 24.0, 15.0);
}

TEST(AnalyzeLocIdsTest, HandlesEmptyAndUniformInputs) {
  const LocIdStats empty = AnalyzeLocIds({}, 4);
  EXPECT_EQ(empty.num_inhabited, 0u);
  EXPECT_EQ(empty.mean_peers_per_inhabited, 0.0);

  const LocIdStats uniform = AnalyzeLocIds({5, 5, 5, 5}, 4);
  EXPECT_EQ(uniform.num_inhabited, 1u);
  EXPECT_EQ(uniform.max_peers, 4u);
  EXPECT_EQ(uniform.mean_peers_per_inhabited, 4.0);
}

class LandmarkCountTest : public ::testing::TestWithParam<size_t> {};

/// Property (paper §5.1 rationale): more landmarks inflate the locId space
/// faster than peers can populate it — mean peers per inhabited locId shrinks.
TEST_P(LandmarkCountTest, MoreLandmarksScatterPeers) {
  const size_t k = GetParam();
  Rng rng(7);
  GeometricUnderlayConfig cfg;
  cfg.num_routers = 150;
  cfg.num_peers = 1000;
  cfg.num_landmarks = k;
  auto u = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  const LocIdStats stats = AnalyzeLocIds(ComputeAllLocIds(*u), k);
  EXPECT_EQ(stats.num_possible, NumLocIds(k));
  EXPECT_GE(stats.mean_peers_per_inhabited, 1.0);
  // Sanity rather than strict monotonicity (single topology draw): the
  // inhabited count never exceeds the possible count.
  EXPECT_LE(stats.num_inhabited, stats.num_possible);
}

INSTANTIATE_TEST_SUITE_P(Counts, LandmarkCountTest, ::testing::Values(2, 3, 4, 5, 6));

}  // namespace
}  // namespace locaware::net
