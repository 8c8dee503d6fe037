#include "bloom/bloom_filter.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_delta.h"
#include "bloom/counting_bloom.h"
#include "common/rng.h"

namespace locaware::bloom {
namespace {

std::vector<std::string> MakeKeys(size_t n, const std::string& prefix = "kw") {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(prefix + std::to_string(i));
  return keys;
}

TEST(BloomFilterTest, StartsEmpty) {
  BloomFilter bf(1200, 4);
  EXPECT_EQ(bf.CountOnes(), 0u);
  EXPECT_EQ(bf.FillRatio(), 0.0);
  EXPECT_FALSE(bf.MayContain("anything"));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  // The paper's core guarantee (§4.2): "it never returns false negatives".
  BloomFilter bf(1200, 4);
  const auto keys = MakeKeys(150);
  for (const auto& k : keys) bf.Insert(k);
  for (const auto& k : keys) EXPECT_TRUE(bf.MayContain(k)) << k;
}

TEST(BloomFilterTest, FalsePositiveRateNearTheory) {
  // 150 keys in 1200 bits with k=4: fill ≈ 1-(1-1/m)^(kn) ≈ 0.39,
  // fp ≈ 0.39^4 ≈ 2.4%. Accept up to ~2x that.
  BloomFilter bf(1200, 4);
  for (const auto& k : MakeKeys(150)) bf.Insert(k);
  int fp = 0;
  constexpr int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i) {
    fp += bf.MayContain("absent" + std::to_string(i));
  }
  const double rate = static_cast<double>(fp) / kProbes;
  EXPECT_LT(rate, 0.05);
  EXPECT_GT(rate, 0.002);  // a filter this full is not fp-free
}

TEST(BloomFilterTest, EstimatedFpRateTracksFill) {
  BloomFilter bf(1200, 4);
  EXPECT_EQ(bf.EstimatedFpRate(), 0.0);
  for (const auto& k : MakeKeys(150)) bf.Insert(k);
  EXPECT_GT(bf.EstimatedFpRate(), 0.001);
  EXPECT_LT(bf.EstimatedFpRate(), 0.2);
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter bf(256, 3);
  bf.Insert("x");
  EXPECT_GT(bf.CountOnes(), 0u);
  bf.Clear();
  EXPECT_EQ(bf.CountOnes(), 0u);
  EXPECT_FALSE(bf.MayContain("x"));
}

TEST(BloomFilterTest, InsertIsIdempotentOnBits) {
  BloomFilter bf(512, 4);
  bf.Insert("same");
  const size_t ones = bf.CountOnes();
  bf.Insert("same");
  EXPECT_EQ(bf.CountOnes(), ones);
}

TEST(BloomFilterTest, BitOpsRoundTrip) {
  BloomFilter bf(100, 2);
  bf.SetBit(63);
  bf.SetBit(64);  // word boundary
  bf.SetBit(99);
  EXPECT_TRUE(bf.TestBit(63));
  EXPECT_TRUE(bf.TestBit(64));
  EXPECT_TRUE(bf.TestBit(99));
  bf.ClearBit(64);
  EXPECT_FALSE(bf.TestBit(64));
  bf.ToggleBit(64);
  EXPECT_TRUE(bf.TestBit(64));
  EXPECT_DEATH(bf.TestBit(100), "CHECK");
}

TEST(BloomFilterTest, ProbePositionsInRangeAndStable) {
  BloomFilter bf(1200, 4);
  const auto p1 = bf.ProbePositions("key");
  const auto p2 = bf.ProbePositions("key");
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.size(), 4u);
  for (uint32_t p : p1) EXPECT_LT(p, 1200u);
}

TEST(BloomFilterTest, DiffPositionsFindsExactDifferences) {
  BloomFilter a(256, 3), b(256, 3);
  b.SetBit(5);
  b.SetBit(64);
  b.SetBit(255);
  EXPECT_EQ(a.DiffPositions(b), (std::vector<uint32_t>{5, 64, 255}));
  EXPECT_TRUE(a.DiffPositions(a).empty());
}

TEST(BloomFilterTest, DiffRequiresSameShape) {
  BloomFilter a(256, 3), b(512, 3);
  EXPECT_DEATH(a.DiffPositions(b), "mismatch");
}

TEST(BloomFilterTest, EqualityOperator) {
  BloomFilter a(128, 2), b(128, 2);
  EXPECT_EQ(a, b);
  a.Insert("z");
  EXPECT_FALSE(a == b);
  b.Insert("z");
  EXPECT_EQ(a, b);
}

// --- storage contract: empty until the first write, equality by bits ---

TEST(BloomStorageTest, FreshEqualsSetThenCleared) {
  // A filter whose words were materialized and then zeroed again equals one
  // that never allocated, in both directions and in every read.
  BloomFilter fresh(1200, 4), cleared(1200, 4);
  cleared.SetBit(7);
  cleared.SetBit(1199);
  cleared.ClearBit(7);
  cleared.ToggleBit(1199);
  EXPECT_EQ(fresh, cleared);
  EXPECT_EQ(cleared, fresh);
  EXPECT_EQ(cleared.CountOnes(), 0u);
  EXPECT_TRUE(fresh.DiffPositions(cleared).empty());
  EXPECT_TRUE(cleared.DiffPositions(fresh).empty());
  EXPECT_FALSE(fresh == BloomFilter(1200, 3)) << "shape still counts";
}

TEST(BloomStorageTest, ReadsAndClearBitOnFreshFilter) {
  BloomFilter bf(100, 2);
  EXPECT_FALSE(bf.TestBit(0));
  EXPECT_FALSE(bf.TestBit(99));
  bf.ClearBit(50);  // no-op on empty storage
  EXPECT_EQ(bf, BloomFilter(100, 2));
  // Bounds CHECKs hold on empty storage too.
  EXPECT_DEATH(bf.TestBit(100), "CHECK");
  EXPECT_DEATH(bf.ClearBit(100), "CHECK");
  EXPECT_DEATH(bf.SetBit(100), "CHECK");
  EXPECT_DEATH(bf.ToggleBit(100), "CHECK");
}

TEST(BloomStorageTest, DeltaAppliesOntoEmptyCopy) {
  // The link handshake copies an advertised filter that is usually empty;
  // later deltas must apply onto that copy exactly.
  BloomFilter advertised(1200, 4);
  BloomFilter copy = advertised;
  BloomFilter next = advertised;
  for (const auto& k : MakeKeys(5)) next.Insert(k);
  ASSERT_TRUE(ApplyDelta(ComputeDelta(advertised, next), &copy).ok());
  EXPECT_EQ(copy, next);
  // And back to all-zero: the copy stays materialized but equals a fresh one.
  ASSERT_TRUE(ApplyDelta(ComputeDelta(next, advertised), &copy).ok());
  EXPECT_EQ(copy, BloomFilter(1200, 4));
}

TEST(BloomStorageTest, ClearThenApplyReproducesFullStateBootstrap) {
  // OnBloomUpdate's full-state bootstrap: the sender diffs its advertised
  // filter against a fresh one; the receiver clears its stale copy and
  // applies the positions.
  BloomFilter advertised(1200, 4);
  for (const auto& k : MakeKeys(12, "adv")) advertised.Insert(k);
  BloomFilter stale(1200, 4);
  for (const auto& k : MakeKeys(30, "old")) stale.Insert(k);
  const std::vector<uint32_t> positions =
      advertised.DiffPositions(BloomFilter(1200, 4));
  stale.Clear();
  EXPECT_EQ(stale, BloomFilter(1200, 4));
  ASSERT_TRUE(ApplyDelta(1200, positions, &stale).ok());
  EXPECT_EQ(stale, advertised);
  // An all-zero sender bootstraps to an all-zero copy.
  const BloomFilter zero(1200, 4);
  stale.Clear();
  ASSERT_TRUE(ApplyDelta(1200, zero.DiffPositions(zero), &stale).ok());
  EXPECT_EQ(stale, zero);
}

TEST(BloomFilterTest, InvalidShapesDie) {
  EXPECT_DEATH(BloomFilter(0, 4), "CHECK");
  EXPECT_DEATH(BloomFilter(100, 0), "CHECK");
  EXPECT_DEATH(BloomFilter(100, 17), "CHECK");
}

TEST(OptimalNumHashesTest, ClassicValues) {
  // m/n = 8 bits per key -> k = round(8 ln2) = 6.
  EXPECT_EQ(OptimalNumHashes(1200, 150), 6u);
  // Tiny filters clamp at 1, huge ratios clamp at 16.
  EXPECT_EQ(OptimalNumHashes(10, 100), 1u);
  EXPECT_EQ(OptimalNumHashes(100000, 10), 16u);
}

// --- CountingBloomFilter ---

TEST(CountingBloomTest, InsertThenRemoveRestoresEmpty) {
  CountingBloomFilter cbf(1200, 4);
  const auto keys = MakeKeys(50);
  for (const auto& k : keys) cbf.Insert(k);
  for (const auto& k : keys) EXPECT_TRUE(cbf.MayContain(k));
  for (const auto& k : keys) cbf.Remove(k);
  EXPECT_EQ(cbf.projection().CountOnes(), 0u);
}

TEST(CountingBloomTest, RemoveKeepsOtherKeys) {
  CountingBloomFilter cbf(1200, 4);
  cbf.Insert("keep");
  cbf.Insert("drop");
  cbf.Remove("drop");
  EXPECT_TRUE(cbf.MayContain("keep"));  // no false negative introduced
}

TEST(CountingBloomTest, SharedBitsSurviveSingleRemove) {
  // Insert the same key twice (two filenames sharing a keyword): one remove
  // must not clear it.
  CountingBloomFilter cbf(1200, 4);
  cbf.Insert("shared");
  cbf.Insert("shared");
  cbf.Remove("shared");
  EXPECT_TRUE(cbf.MayContain("shared"));
  cbf.Remove("shared");
  EXPECT_FALSE(cbf.MayContain("shared"));
}

TEST(CountingBloomTest, ProjectionMatchesBitwiseRebuild) {
  CountingBloomFilter cbf(600, 4);
  BloomFilter reference(600, 4);
  const auto keys = MakeKeys(40);
  for (const auto& k : keys) {
    cbf.Insert(k);
    reference.Insert(k);
  }
  EXPECT_EQ(cbf.projection(), reference);
  // Remove half; rebuild the reference from scratch.
  BloomFilter reference2(600, 4);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      cbf.Remove(keys[i]);
    } else {
      reference2.Insert(keys[i]);
    }
  }
  EXPECT_EQ(cbf.projection(), reference2);
}

TEST(CountingBloomTest, RemoveOfAbsentKeyDies) {
  // A fresh filter holds no counters; Remove must still die, not no-op.
  CountingBloomFilter cbf(1200, 4);
  EXPECT_DEATH(cbf.Remove("never-inserted"), "underflow");
  cbf.Insert("present");
  cbf.Clear();  // back to empty storage
  EXPECT_DEATH(cbf.Remove("present"), "underflow");
}

TEST(CountingBloomTest, FreshCountersReadZero) {
  CountingBloomFilter cbf(1200, 4);
  EXPECT_EQ(cbf.CounterAt(0), 0u);
  EXPECT_EQ(cbf.CounterAt(1199), 0u);
  EXPECT_EQ(cbf.SaturatedCount(), 0u);
  EXPECT_FALSE(cbf.MayContain("anything"));
  EXPECT_DEATH(cbf.CounterAt(1200), "CHECK");
}

TEST(CountingBloomTest, InsertRemoveRoundTripEqualsFresh) {
  CountingBloomFilter cbf(1200, 4);
  const auto keys = MakeKeys(40);
  for (const auto& k : keys) cbf.Insert(k);
  for (const auto& k : keys) cbf.Remove(k);
  EXPECT_EQ(cbf.projection(), CountingBloomFilter(1200, 4).projection());
  for (size_t pos = 0; pos < 1200; ++pos) ASSERT_EQ(cbf.CounterAt(pos), 0u);
}

TEST(CountingBloomTest, SaturationPinsCounters) {
  CountingBloomFilter cbf(8, 1);  // tiny: every insert hits few positions
  for (int i = 0; i < 40; ++i) cbf.Insert("hot");
  EXPECT_GT(cbf.SaturatedCount(), 0u);
  // Saturated counters never decrement: removal cannot clear the bit.
  for (int i = 0; i < 40; ++i) cbf.Remove("hot");
  EXPECT_TRUE(cbf.MayContain("hot"));
}

TEST(CountingBloomTest, ClearResetsCountersAndProjection) {
  CountingBloomFilter cbf(128, 3);
  cbf.Insert("a");
  cbf.Clear();
  EXPECT_EQ(cbf.projection().CountOnes(), 0u);
  EXPECT_EQ(cbf.SaturatedCount(), 0u);
  cbf.Insert("a");  // usable after Clear
  EXPECT_TRUE(cbf.MayContain("a"));
}

// --- BloomDelta ---

TEST(BloomDeltaTest, ComputeAndApplyRoundTrip) {
  BloomFilter before(1200, 4), after(1200, 4);
  for (const auto& k : MakeKeys(20)) after.Insert(k);
  const BloomDelta delta = ComputeDelta(before, after);
  EXPECT_FALSE(delta.empty());
  ASSERT_TRUE(ApplyDelta(delta, &before).ok());
  EXPECT_EQ(before, after);
}

TEST(BloomDeltaTest, DeltaOfIdenticalFiltersIsEmpty) {
  BloomFilter a(512, 4);
  a.Insert("x");
  const BloomDelta delta = ComputeDelta(a, a);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(WireSizeBits(delta), 16u);  // header only
}

TEST(BloomDeltaTest, ApplyRejectsShapeMismatch) {
  BloomFilter small(256, 4);
  BloomDelta delta;
  delta.filter_bits = 512;
  delta.positions = {1};
  EXPECT_FALSE(ApplyDelta(delta, &small).ok());
}

TEST(BloomDeltaTest, ApplyRejectsOutOfRangePositionAtomically) {
  BloomFilter f(256, 4);
  BloomDelta delta;
  delta.filter_bits = 256;
  delta.positions = {10, 999};
  EXPECT_FALSE(ApplyDelta(delta, &f).ok());
  EXPECT_FALSE(f.TestBit(10));  // nothing applied on failure
}

TEST(BloomDeltaTest, PositionBitsMatchesPaperFootnote) {
  // "The location of each bit [in a 1200-bit vector] by 11 bits."
  EXPECT_EQ(PositionBits(1200), 11u);
  EXPECT_EQ(PositionBits(1024), 10u);
  EXPECT_EQ(PositionBits(1025), 11u);
  EXPECT_EQ(PositionBits(2), 1u);
}

TEST(BloomDeltaTest, WireSizeMatchesPaperBound) {
  // One filename = 3 keywords x 4 hashes = at most 12 changed bits; the paper
  // bounds the update at 12 * 11 = 132 bits (~0.132 Kb) + small header.
  BloomFilter before(1200, 4), after(1200, 4);
  after.Insert("kw-a");
  after.Insert("kw-b");
  after.Insert("kw-c");
  const BloomDelta delta = ComputeDelta(before, after);
  EXPECT_LE(delta.positions.size(), 12u);
  EXPECT_LE(WireSizeBits(delta), 16u + 132u);
}

TEST(BloomDeltaTest, EncodeDecodeRoundTrip) {
  BloomFilter before(1200, 4), after(1200, 4);
  for (const auto& k : MakeKeys(30)) after.Insert(k);
  const BloomDelta delta = ComputeDelta(before, after);
  const std::vector<uint8_t> wire = EncodeDelta(delta);
  auto decoded = DecodeDelta(wire, 1200);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().positions, delta.positions);
}

TEST(BloomDeltaTest, EncodeEmptyDelta) {
  BloomDelta delta;
  delta.filter_bits = 1200;
  const auto wire = EncodeDelta(delta);
  EXPECT_EQ(wire.size(), 2u);
  auto decoded = DecodeDelta(wire, 1200);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.ValueOrDie().positions.empty());
}

TEST(BloomDeltaTest, DecodeRejectsTruncatedInput) {
  BloomFilter before(1200, 4), after(1200, 4);
  for (const auto& k : MakeKeys(10)) after.Insert(k);
  std::vector<uint8_t> wire = EncodeDelta(ComputeDelta(before, after));
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(DecodeDelta(wire, 1200).ok());
  EXPECT_FALSE(DecodeDelta({}, 1200).ok());
}

TEST(BloomDeltaTest, DecodeRejectsOutOfRangePositions) {
  // filter_bits = 100 -> 7 bits per position, so values up to 127 are
  // encodable; hand-craft a payload carrying 127 and expect rejection.
  const std::vector<uint8_t> wire{1, 0, 127};
  EXPECT_FALSE(DecodeDelta(wire, 100).ok());
  // The same payload is valid for a 128-bit filter.
  EXPECT_TRUE(DecodeDelta(wire, 128).ok());
}

struct DeltaShape {
  size_t bits;
  size_t changes;
};

class BloomDeltaPropertyTest : public ::testing::TestWithParam<DeltaShape> {};

/// Property: encode/decode round-trips for any filter width and change count.
TEST_P(BloomDeltaPropertyTest, RoundTripsAcrossShapes) {
  const auto [bits, changes] = GetParam();
  Rng rng(bits * 31 + changes);
  BloomFilter before(bits, 3), after(bits, 3);
  std::set<uint32_t> flipped;
  while (flipped.size() < changes) {
    flipped.insert(static_cast<uint32_t>(rng.UniformInt(0, bits - 1)));
  }
  for (uint32_t pos : flipped) after.ToggleBit(pos);
  const BloomDelta delta = ComputeDelta(before, after);
  EXPECT_EQ(delta.positions.size(), changes);
  auto decoded = DecodeDelta(EncodeDelta(delta), bits);
  ASSERT_TRUE(decoded.ok());
  BloomFilter rebuilt(bits, 3);
  ASSERT_TRUE(ApplyDelta(decoded.ValueOrDie(), &rebuilt).ok());
  EXPECT_EQ(rebuilt, after);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BloomDeltaPropertyTest,
                         ::testing::Values(DeltaShape{64, 0}, DeltaShape{64, 64},
                                           DeltaShape{100, 7}, DeltaShape{1200, 12},
                                           DeltaShape{1200, 300},
                                           DeltaShape{4096, 1}));

}  // namespace
}  // namespace locaware::bloom
