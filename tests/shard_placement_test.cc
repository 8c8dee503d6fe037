#include "sim/shard_placement.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace locaware::sim {
namespace {

/// 1-D line oracle: distance between locations is how far apart their ids
/// are. Simple, metric, and makes "spatially tight" easy to assert.
double LineDistance(size_t a, size_t b) {
  return a > b ? static_cast<double>(a - b) : static_cast<double>(b - a);
}

/// Per-shard total weight under `placement` (uniform weights when empty).
std::vector<uint64_t> ShardLoads(const ShardPlacement& placement,
                                 const std::vector<uint64_t>& weight) {
  std::vector<uint64_t> load(placement.num_shards(), 0);
  for (PeerId p = 0; p < placement.num_peers(); ++p) {
    load[placement.shard_of(p)] += weight.empty() ? 1 : weight[p];
  }
  return load;
}

TEST(ShardPlacementTest, ModuloMatchesInlineFormula) {
  // kModulo is the compatibility contract: byte-for-byte the historical
  // inline `p % shards`, with no per-peer storage behind it.
  std::vector<size_t> loc(100);
  for (size_t p = 0; p < loc.size(); ++p) loc[p] = p / 10;
  const ShardPlacement placement = ShardPlacement::Modulo(7, loc);
  EXPECT_EQ(placement.strategy(), PlacementStrategy::kModulo);
  EXPECT_EQ(placement.num_shards(), 7u);
  EXPECT_EQ(placement.num_peers(), 100u);
  EXPECT_TRUE(placement.owner_map().empty());
  for (PeerId p = 0; p < 100; ++p) EXPECT_EQ(placement.shard_of(p), p % 7);
}

TEST(ShardPlacementTest, DefaultIsTrivialSingleShard) {
  const ShardPlacement placement;
  EXPECT_EQ(placement.num_shards(), 1u);
  EXPECT_EQ(placement.shard_of(12345), 0u);
  EXPECT_TRUE(placement.owner_map().empty());
}

TEST(ShardPlacementTest, DigestsAreSortedDedupedAndComplete) {
  // 60 peers in blocks of 10 per location, modulo across 3 shards: every
  // block holds peers of every residue class, so every shard touches every
  // location, each exactly once in its digest.
  std::vector<size_t> loc(60);
  for (size_t p = 0; p < loc.size(); ++p) loc[p] = p / 10;
  const ShardPlacement placement = ShardPlacement::Modulo(3, loc);
  for (ShardId s = 0; s < 3; ++s) {
    const std::vector<size_t>& digest = placement.ShardLocations(s);
    EXPECT_TRUE(std::is_sorted(digest.begin(), digest.end()));
    EXPECT_EQ(std::adjacent_find(digest.begin(), digest.end()), digest.end());
    EXPECT_EQ(digest.size(), 6u);
  }
}

/// The digest builder before the byte table: push every peer's location
/// onto its shard's list, then sort and deduplicate each list. No digests
/// at one shard (there is no lookahead matrix to feed).
std::vector<std::vector<size_t>> ReferenceDigests(const ShardPlacement& placement,
                                                  const std::vector<size_t>& loc) {
  std::vector<std::vector<size_t>> digests(placement.num_shards());
  if (placement.num_shards() <= 1) return digests;
  for (PeerId p = 0; p < placement.num_peers(); ++p) {
    digests[placement.shard_of(p)].push_back(loc[p]);
  }
  for (std::vector<size_t>& d : digests) {
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
  }
  return digests;
}

TEST(ShardPlacementTest, DigestsMatchSortAndUniqueOracle) {
  // Scattered locations (a multiplicative walk over 97 routers, some never
  // used), for both strategies at 1, 2, 4 and 8 shards, and peer counts that
  // leave some shards without peers.
  for (const size_t peers : {size_t{0}, size_t{3}, size_t{500}}) {
    std::vector<size_t> loc(peers);
    for (size_t p = 0; p < peers; ++p) loc[p] = (p * 37 + p / 7) % 97;
    for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
      const ShardPlacement modulo = ShardPlacement::Modulo(shards, loc);
      const ShardPlacement clustered =
          ShardPlacement::Clustered(shards, loc, {}, LineDistance);
      for (const ShardPlacement* placement : {&modulo, &clustered}) {
        const auto expected = ReferenceDigests(*placement, loc);
        for (ShardId s = 0; s < shards; ++s) {
          EXPECT_EQ(placement->ShardLocations(s), expected[s])
              << PlacementStrategyName(placement->strategy()) << " shards=" << shards
              << " peers=" << peers << " shard " << s;
        }
      }
    }
  }
}

TEST(ShardPlacementTest, ClusteredCoversEveryPeerExactlyOnce) {
  std::vector<size_t> loc(97);  // deliberately not divisible by anything
  std::vector<uint64_t> weight(97);
  for (size_t p = 0; p < loc.size(); ++p) {
    loc[p] = (p * 13) % 11;
    weight[p] = 1 + p % 5;
  }
  const ShardPlacement placement =
      ShardPlacement::Clustered(4, loc, weight, LineDistance);
  EXPECT_EQ(placement.strategy(), PlacementStrategy::kClustered);
  ASSERT_EQ(placement.owner_map().size(), 97u);
  size_t total = 0;
  for (ShardId s = 0; s < 4; ++s) total += placement.shard_peer_counts()[s];
  EXPECT_EQ(total, 97u);
  for (PeerId p = 0; p < 97; ++p) EXPECT_LT(placement.shard_of(p), 4u);
}

TEST(ShardPlacementTest, ClusteredHonorsBalanceBound) {
  // The documented invariant: max shard load <= 2*ceil(total/K) + max peer
  // weight, for an adversarial weight profile (heavy head, long tail).
  constexpr uint32_t kShards = 8;
  std::vector<size_t> loc;
  std::vector<uint64_t> weight;
  for (size_t p = 0; p < 500; ++p) {
    loc.push_back((p * p) % 37);
    weight.push_back(p < 10 ? 200 : 1 + p % 7);
  }
  const ShardPlacement placement =
      ShardPlacement::Clustered(kShards, loc, weight, LineDistance);
  uint64_t total = 0, max_w = 0;
  for (uint64_t w : weight) {
    total += w;
    max_w = std::max(max_w, w);
  }
  const uint64_t cap = (total + kShards - 1) / kShards;
  for (uint64_t shard_load : ShardLoads(placement, weight)) {
    EXPECT_LE(shard_load, 2 * cap + max_w);
  }
}

TEST(ShardPlacementTest, EmptyLocationsNeverAppearInDigests) {
  // Peers live only at even locations; odd ids are peer-less routers. They
  // must not surface in any digest (a phantom location would loosen — or
  // with a hostile oracle tighten — the lookahead bound for no peer).
  std::vector<size_t> loc(40);
  for (size_t p = 0; p < loc.size(); ++p) loc[p] = (p % 10) * 2;
  const ShardPlacement placement =
      ShardPlacement::Clustered(4, loc, {}, LineDistance);
  for (ShardId s = 0; s < 4; ++s) {
    for (size_t digest_loc : placement.ShardLocations(s)) {
      EXPECT_EQ(digest_loc % 2, 0u) << "shard " << s;
    }
  }
}

TEST(ShardPlacementTest, FewerPeersThanShardsLeavesEmptyShards) {
  // 3 peers over 8 shards: every peer still owned, empty shards report zero
  // peers and an empty digest (the lookahead matrix gives those the scalar
  // fallback bound).
  const std::vector<size_t> loc = {0, 5, 9};
  const ShardPlacement placement =
      ShardPlacement::Clustered(8, loc, {}, LineDistance);
  size_t total = 0, empty = 0;
  for (ShardId s = 0; s < 8; ++s) {
    total += placement.shard_peer_counts()[s];
    if (placement.shard_peer_counts()[s] == 0) {
      ++empty;
      EXPECT_TRUE(placement.ShardLocations(s).empty());
    }
  }
  EXPECT_EQ(total, 3u);
  EXPECT_GE(empty, 5u);
}

TEST(ShardPlacementTest, SingleLocationSplitsPerPeerAndBalances) {
  // One location holding everyone (the uniform-underlay degenerate case): the
  // bucket is oversized, so it spills per peer onto the least-loaded shard —
  // uniform weights must come out near-perfectly even.
  const std::vector<size_t> loc(64, 0);
  const ShardPlacement placement =
      ShardPlacement::Clustered(4, loc, {}, LineDistance);
  for (uint64_t shard_load : ShardLoads(placement, {})) {
    EXPECT_EQ(shard_load, 16u);
  }
}

TEST(ShardPlacementTest, NullOracleStillProducesValidBalancedPack) {
  std::vector<size_t> loc(120);
  for (size_t p = 0; p < loc.size(); ++p) loc[p] = p % 12;
  const ShardPlacement placement =
      ShardPlacement::Clustered(4, loc, {}, /*loc_distance=*/nullptr);
  uint64_t max_load = 0;
  size_t total = 0;
  for (uint64_t shard_load : ShardLoads(placement, {})) {
    max_load = std::max<uint64_t>(max_load, shard_load);
    total += shard_load;
  }
  EXPECT_EQ(total, 120u);
  // cap = 30, max peer weight 1 -> bound 61; distance-blind packing still
  // respects it.
  EXPECT_LE(max_load, 61u);
}

TEST(ShardPlacementTest, ClusteredKeepsFarGroupsApart) {
  // Two tight location groups a huge gap apart, K = 2: a locality-clustered
  // pack must give each shard locations from exactly one group — this is the
  // property that keeps the lookahead matrix off the scalar floor.
  std::vector<size_t> loc;
  for (size_t p = 0; p < 40; ++p) loc.push_back(p % 4);          // group A: 0..3
  for (size_t p = 0; p < 40; ++p) loc.push_back(1000 + p % 4);   // group B: 1000..1003
  const ShardPlacement placement =
      ShardPlacement::Clustered(2, loc, {}, LineDistance);
  for (ShardId s = 0; s < 2; ++s) {
    const std::vector<size_t>& digest = placement.ShardLocations(s);
    ASSERT_FALSE(digest.empty());
    const bool in_b = digest.front() >= 1000;
    for (size_t digest_loc : digest) {
      EXPECT_EQ(digest_loc >= 1000, in_b) << "shard " << s << " mixes groups";
    }
  }
}

TEST(ShardPlacementTest, ClusteredIsDeterministic) {
  // No RNG and total tie-breaks: the same inputs must rebuild the exact same
  // map (the determinism contract leans on this — the placement is part of
  // the run's pure function of (config, seed)).
  std::vector<size_t> loc(200);
  std::vector<uint64_t> weight(200);
  for (size_t p = 0; p < loc.size(); ++p) {
    loc[p] = (p * 31) % 23;
    weight[p] = 1 + (p * 7) % 13;
  }
  const ShardPlacement a = ShardPlacement::Clustered(6, loc, weight, LineDistance);
  const ShardPlacement b = ShardPlacement::Clustered(6, loc, weight, LineDistance);
  ASSERT_EQ(a.owner_map().size(), b.owner_map().size());
  EXPECT_EQ(a.owner_map(), b.owner_map());
}

TEST(ShardPlacementTest, StrategyNames) {
  EXPECT_STREQ(PlacementStrategyName(PlacementStrategy::kModulo), "modulo");
  EXPECT_STREQ(PlacementStrategyName(PlacementStrategy::kClustered), "clustered");
}

}  // namespace
}  // namespace locaware::sim
