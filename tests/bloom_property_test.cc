// Randomized property tests for the Bloom subsystem, model-checked against
// exact reference containers. These complement bloom_test.cc's example-based
// cases with thousands of randomized operations per configuration.
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_delta.h"
#include "bloom/bloom_filter.h"
#include "bloom/counting_bloom.h"
#include "common/rng.h"

namespace locaware::bloom {
namespace {

/// `prefix` followed by `n` in decimal. Built by appending: gcc 12 reports a
/// false -Wrestrict on `"literal" + std::to_string(n)` in optimized builds.
std::string Numbered(std::string_view prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

struct FilterShape {
  size_t bits;
  size_t hashes;
  uint64_t seed;
};

class BloomPropertyTest : public ::testing::TestWithParam<FilterShape> {};

/// Property: a plain filter never produces a false negative, whatever the
/// shape and insertion history.
TEST_P(BloomPropertyTest, NeverForgetsInsertedKeys) {
  const auto [bits, hashes, seed] = GetParam();
  Rng rng(seed);
  BloomFilter bf(bits, hashes);
  std::set<std::string> inserted;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = Numbered("k", rng.UniformInt(0, 5000));
    if (rng.Bernoulli(0.7)) {
      bf.Insert(key);
      inserted.insert(key);
    }
    // Every previously inserted key must still test positive.
    if (i % 50 == 0) {
      for (const std::string& k : inserted) {
        ASSERT_TRUE(bf.MayContain(k)) << k << " lost at step " << i;
      }
    }
  }
}

/// Property: the counting filter agrees with an exact multiset on
/// no-false-negatives, under interleaved inserts and removes.
TEST_P(BloomPropertyTest, CountingFilterTracksMultiset) {
  const auto [bits, hashes, seed] = GetParam();
  Rng rng(seed ^ 0xabcdef);
  CountingBloomFilter cbf(bits, hashes);
  std::map<std::string, int> reference;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = Numbered("key", rng.UniformInt(0, 60));
    if (rng.Bernoulli(0.55)) {
      cbf.Insert(key);
      ++reference[key];
    } else {
      auto it = reference.find(key);
      if (it != reference.end() && it->second > 0) {
        cbf.Remove(key);
        if (--it->second == 0) reference.erase(it);
      }
    }
    // No false negatives: everything with count > 0 must be reported.
    if (i % 100 == 0) {
      for (const auto& [k, count] : reference) {
        ASSERT_TRUE(cbf.MayContain(k)) << k << " lost at step " << i;
      }
    }
  }
  // Draining everything leaves the projection empty unless counters
  // saturated (possible only for the tiny shapes).
  for (auto& [k, count] : reference) {
    for (int c = 0; c < count; ++c) cbf.Remove(k);
  }
  if (cbf.SaturatedCount() == 0) {
    EXPECT_EQ(cbf.projection().CountOnes(), 0u);
  }
}

/// Property: delta-sync keeps a mirrored filter bit-identical through an
/// arbitrary update history (the gossip correctness argument).
TEST_P(BloomPropertyTest, DeltaSyncNeverDiverges) {
  const auto [bits, hashes, seed] = GetParam();
  Rng rng(seed ^ 0x77);
  BloomFilter source(bits, hashes);
  BloomFilter advertised = source;  // last state sent
  BloomFilter mirror = source;      // the neighbor's copy
  for (int round = 0; round < 60; ++round) {
    // Mutate the source arbitrarily (inserts and raw bit clears, as eviction
    // resyncs would produce).
    const int mutations = static_cast<int>(rng.UniformInt(0, 5));
    for (int m = 0; m < mutations; ++m) {
      if (rng.Bernoulli(0.7)) {
        source.Insert(Numbered("w", rng.UniformInt(0, 500)));
      } else {
        source.ClearBit(rng.UniformInt(0, bits - 1));
      }
    }
    // Gossip tick: send the delta, apply at the mirror.
    const BloomDelta delta = ComputeDelta(advertised, source);
    auto decoded = DecodeDelta(EncodeDelta(delta), bits);
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(ApplyDelta(decoded.ValueOrDie(), &mirror).ok());
    advertised = source;
    ASSERT_EQ(mirror, source) << "diverged at round " << round;
  }
}

/// Property: fill ratio is monotone in insertions and the fp estimate stays
/// a probability.
TEST_P(BloomPropertyTest, FillMonotoneAndFpBounded) {
  const auto [bits, hashes, seed] = GetParam();
  Rng rng(seed ^ 0x1234);
  BloomFilter bf(bits, hashes);
  double last_fill = 0.0;
  for (int i = 0; i < 300; ++i) {
    bf.Insert(Numbered("x", rng.UniformInt(0, 100000)));
    const double fill = bf.FillRatio();
    ASSERT_GE(fill, last_fill);
    ASSERT_LE(fill, 1.0);
    const double fp = bf.EstimatedFpRate();
    ASSERT_GE(fp, 0.0);
    ASSERT_LE(fp, 1.0);
    last_fill = fill;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BloomPropertyTest,
                         ::testing::Values(FilterShape{64, 1, 1},
                                           FilterShape{256, 2, 2},
                                           FilterShape{1200, 4, 3},
                                           FilterShape{1200, 4, 4},
                                           FilterShape{4096, 8, 5},
                                           FilterShape{100, 3, 6}),
                         [](const auto& info) {
                           return Numbered("b", info.param.bits) +
                                  Numbered("k", info.param.hashes) +
                                  Numbered("s", info.param.seed);
                         });

/// The storage contract (empty until the first write; equality by bits)
/// under random operations. A few filters share one small shape so clears,
/// copies and all-zero-but-materialized states keep meeting each other; each
/// has a dense std::vector<bool> reference, and after every operation every
/// read — bits, popcount, diffs both ways, delta apply, equality — must agree
/// with the references.
TEST(BloomFilterFuzzTest, LazyStorageMirrorsDenseReference) {
  constexpr size_t kBits = 130;  // three words, the last one partial
  constexpr size_t kHashes = 3;
  constexpr size_t kFilters = 4;
  Rng rng(0x1a2b5eed);
  std::vector<BloomFilter> filters(kFilters, BloomFilter(kBits, kHashes));
  std::vector<std::vector<bool>> refs(kFilters, std::vector<bool>(kBits, false));
  const auto ref_diff = [&](size_t a, size_t b) {
    std::vector<uint32_t> diff;
    for (size_t pos = 0; pos < kBits; ++pos) {
      if (refs[a][pos] != refs[b][pos]) diff.push_back(static_cast<uint32_t>(pos));
    }
    return diff;
  };
  for (int step = 0; step < 4000; ++step) {
    const size_t i = rng.UniformInt(0, kFilters - 1);
    const size_t j = rng.UniformInt(0, kFilters - 1);
    const size_t pos = rng.UniformInt(0, kBits - 1);
    switch (rng.UniformInt(0, 7)) {
      case 0:
        filters[i].SetBit(pos);
        refs[i][pos] = true;
        break;
      case 1:
      case 2:  // weighted so filters keep returning to all-zero
        filters[i].ClearBit(pos);
        refs[i][pos] = false;
        break;
      case 3:
        filters[i].ToggleBit(pos);
        refs[i][pos] = !refs[i][pos];
        break;
      case 4:
        filters[i].Clear();
        refs[i].assign(kBits, false);
        break;
      case 5: {
        const std::string key = Numbered("k", rng.UniformInt(0, 40));
        filters[i].Insert(key);
        for (uint32_t p : filters[i].ProbePositions(key)) refs[i][p] = true;
        break;
      }
      case 6: {
        BloomFilter copy(filters[j]);
        filters[i] = std::move(copy);
        refs[i] = refs[j];
        break;
      }
      default:
        filters[i] = filters[j];
        refs[i] = refs[j];
        break;
    }
    for (size_t a = 0; a < kFilters; ++a) {
      size_t ones = 0;
      for (size_t p = 0; p < kBits; ++p) {
        ASSERT_EQ(filters[a].TestBit(p), refs[a][p]) << "step " << step << " bit " << p;
        ones += refs[a][p];
      }
      ASSERT_EQ(filters[a].CountOnes(), ones) << "step " << step;
      for (size_t b = 0; b < kFilters; ++b) {
        const std::vector<uint32_t> diff = ref_diff(a, b);
        ASSERT_EQ(filters[a].DiffPositions(filters[b]), diff) << "step " << step;
        ASSERT_EQ(filters[b].DiffPositions(filters[a]), diff) << "step " << step;
        ASSERT_EQ(filters[a] == filters[b], refs[a] == refs[b]) << "step " << step;
        BloomFilter synced = filters[a];
        ASSERT_TRUE(ApplyDelta(kBits, diff, &synced).ok());
        ASSERT_EQ(synced, filters[b]) << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace locaware::bloom
