// FlatMap: the open-addressing table under the data plane's hot maps. The
// interesting transitions are growth rehashes (robin-hood displacement),
// backward-shift erasure (no tombstones to get wrong), buffer ownership
// across copy and move, and heterogeneous lookup for the catalog's string
// interning. The fuzz loops at the bottom mirror every operation
// against std::unordered_map under ASan/UBSan in CI.
#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/small_vector.h"

namespace locaware {
namespace {

using Map = FlatMap<uint32_t, uint32_t>;

TEST(FlatMapTest, StartsEmptyWithNoBuffer) {
  Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.bucket_count(), 0u);  // no allocation until first insert
  EXPECT_FALSE(m.contains(7u));
  EXPECT_EQ(m.find(7u), m.end());
  EXPECT_EQ(m.begin(), m.end());
  EXPECT_EQ(m.erase(7u), 0u);
}

TEST(FlatMapTest, InsertFindEraseRoundTrip) {
  Map m;
  auto [it, inserted] = m.try_emplace(5, 50);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 5u);
  EXPECT_EQ(it->second, 50u);
  // Second try_emplace for the same key is a no-op that returns the entry.
  auto [it2, again] = m.try_emplace(5, 99);
  EXPECT_FALSE(again);
  EXPECT_EQ(it2->second, 50u);
  EXPECT_EQ(m.size(), 1u);

  m[6] = 60;  // operator[] default-constructs then assigns
  EXPECT_EQ(m.at(6u), 60u);
  m.insert_or_assign(5, 55u);
  EXPECT_EQ(m.at(5u), 55u);

  EXPECT_EQ(m.erase(5u), 1u);
  EXPECT_EQ(m.erase(5u), 0u);
  EXPECT_FALSE(m.contains(5u));
  EXPECT_TRUE(m.contains(6u));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, GrowthRehashKeepsEveryElement) {
  Map m;
  constexpr uint32_t kN = 10000;  // forces ~11 doublings from cold
  for (uint32_t i = 0; i < kN; ++i) m.try_emplace(i * 7919, i);
  EXPECT_EQ(m.size(), kN);
  for (uint32_t i = 0; i < kN; ++i) {
    auto it = m.find(i * 7919);
    ASSERT_NE(it, m.end()) << i;
    EXPECT_EQ(it->second, i);
  }
  // Load factor bound: never above 3/4.
  EXPECT_GE(m.bucket_count() * 3, m.size() * 4 / 1);
}

TEST(FlatMapTest, ReservePreSizesSoInsertsNeverRehash) {
  Map m;
  m.reserve(100);
  const size_t cap = m.bucket_count();
  EXPECT_GE(cap * 3, 100u * 4);  // holds 100 under 3/4 load
  for (uint32_t i = 0; i < 100; ++i) m.try_emplace(i, i);
  EXPECT_EQ(m.bucket_count(), cap);  // no growth happened
}

TEST(FlatMapTest, ClearKeepsBufferAndArrivesEmpty) {
  Map m;
  for (uint32_t i = 0; i < 50; ++i) m.try_emplace(i, i);
  const size_t cap = m.bucket_count();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.bucket_count(), cap);  // buffer retained for refill
  for (uint32_t i = 0; i < 50; ++i) EXPECT_FALSE(m.contains(i));
  m.try_emplace(3, 33);
  EXPECT_EQ(m.at(3u), 33u);
}

TEST(FlatMapTest, BackwardShiftEraseClosesProbeChains) {
  // Dense small table: plenty of displaced entries, so erasing in arbitrary
  // order exercises the backward shift. Every survivor must stay findable
  // after every single erase.
  Map m;
  std::vector<uint32_t> keys;
  for (uint32_t i = 0; i < 96; ++i) keys.push_back(i * 2654435761u % 1000);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (uint32_t k : keys) m.try_emplace(k, k + 1);

  std::mt19937 rng(7);
  std::shuffle(keys.begin(), keys.end(), rng);
  while (!keys.empty()) {
    const uint32_t victim = keys.back();
    keys.pop_back();
    ASSERT_EQ(m.erase(victim), 1u);
    for (uint32_t k : keys) {
      auto it = m.find(k);
      ASSERT_NE(it, m.end()) << "lost " << k << " after erasing " << victim;
      ASSERT_EQ(it->second, k + 1);
    }
    ASSERT_EQ(m.size(), keys.size());
  }
}

TEST(FlatMapTest, IterationVisitsEachElementOnce) {
  Map m;
  for (uint32_t i = 0; i < 300; ++i) m.try_emplace(i, i * 10);
  std::vector<uint32_t> seen;
  for (const auto& [k, v] : m) {  // structured bindings over Slot
    EXPECT_EQ(v, k * 10);
    seen.push_back(k);
  }
  // Table order is arbitrary — the collect-and-sort rule applies to us too.
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 300u);
  for (uint32_t i = 0; i < 300; ++i) EXPECT_EQ(seen[i], i);
}

TEST(FlatMapTest, EraseByIteratorRemovesThePointee) {
  Map m;
  for (uint32_t i = 0; i < 20; ++i) m.try_emplace(i, i);
  auto it = m.find(11u);
  ASSERT_NE(it, m.end());
  m.erase(it);  // invalidates iterators; we only re-query below
  EXPECT_FALSE(m.contains(11u));
  EXPECT_EQ(m.size(), 19u);
}

TEST(FlatMapTest, NonTriviallyCopyableValues) {
  // Non-trivial payloads: SmallVector values and strings. Growth and
  // displacement must move them, not bit-copy them.
  FlatMap<uint32_t, SmallVector<uint32_t, 2>> m;
  for (uint32_t i = 0; i < 200; ++i) {
    auto [it, inserted] = m.try_emplace(i);
    ASSERT_TRUE(inserted);
    for (uint32_t j = 0; j <= i % 5; ++j) it->second.push_back(i + j);
  }
  for (uint32_t i = 0; i < 200; ++i) {
    auto it = m.find(i);
    ASSERT_NE(it, m.end());
    ASSERT_EQ(it->second.size(), i % 5 + 1);
    EXPECT_EQ(it->second[0], i);
  }

  FlatMap<uint32_t, std::string> s;
  for (uint32_t i = 0; i < 100; ++i) {
    s.try_emplace(i, std::string(i % 40 + 1, 'x'));  // mix SSO and heap strings
  }
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(s.at(i).size(), i % 40 + 1);
  EXPECT_EQ(s.erase(50u), 1u);
  EXPECT_EQ(s.size(), 99u);
}

TEST(FlatMapTest, HeterogeneousStringLookup) {
  // The catalog's interning tables: string_view keys (viewing stable catalog
  // storage), probed with whatever string type the caller holds — no
  // temporary key conversions.
  static constexpr std::string_view kNames[] = {"alpha", "beta", "gamma"};
  FlatMap<std::string_view, uint32_t> m;
  for (uint32_t i = 0; i < 3; ++i) m.try_emplace(kNames[i], i);
  EXPECT_EQ(m.at(std::string("beta")), 1u);           // std::string probe
  EXPECT_EQ(m.at(std::string_view("gamma")), 2u);     // view probe
  EXPECT_TRUE(m.contains(std::string("alpha")));
  EXPECT_FALSE(m.contains(std::string("delta")));
}

TEST(FlatMapTest, CopySemanticsAndIndependence) {
  Map a;
  for (uint32_t i = 0; i < 40; ++i) a.try_emplace(i, i);
  Map b = a;
  EXPECT_EQ(b.size(), 40u);
  b.erase(7u);
  b.insert_or_assign(3, 999u);
  EXPECT_TRUE(a.contains(7u));  // deep copy: a unaffected
  EXPECT_EQ(a.at(3u), 3u);
  Map c;
  c.try_emplace(1000, 1);
  c = a;
  EXPECT_EQ(c.size(), 40u);
  EXPECT_FALSE(c.contains(1000u));
}

TEST(FlatMapTest, MoveStealsBufferAndSourceStaysUsable) {
  Map a;
  for (uint32_t i = 0; i < 40; ++i) a.try_emplace(i, i);
  const size_t cap = a.bucket_count();
  Map b = std::move(a);
  EXPECT_EQ(b.size(), 40u);
  EXPECT_EQ(b.bucket_count(), cap);
  EXPECT_EQ(a.size(), 0u);  // moved-from: empty but valid
  a.try_emplace(5, 55);
  EXPECT_EQ(a.at(5u), 55u);
  EXPECT_EQ(b.at(5u), 5u);
  // The stolen buffer is b's own: growth past it frees it and rehashes.
  for (uint32_t i = 40; i < 200; ++i) b.try_emplace(i, i);
  for (uint32_t i = 0; i < 200; ++i) EXPECT_EQ(b.at(i), i);
}

// --- fuzz: mirror against the std containers --------------------------------
//
// Same shape as the SmallVector fuzz loop: a seeded op stream applied to the
// flat container and its std reference in lockstep, with full-state
// comparison after every op. CI runs this under ASan/UBSan, which is what
// makes the relocation paths (growth, displacement, backward shift)
// trustworthy rather than merely plausible.

TEST(FlatMapFuzzTest, MirrorsUnorderedMapUnderRandomOps) {
  std::mt19937 rng(0x10caed5e);
  FlatMap<uint32_t, uint64_t> flat;
  std::unordered_map<uint32_t, uint64_t> ref;
  // Small key space so erase/overwrite/probe-chain cases fire constantly.
  auto key = [&] { return static_cast<uint32_t>(rng() % 257); };
  for (int op = 0; op < 60000; ++op) {
    switch (rng() % 10) {
      case 0:
      case 1:
      case 2: {  // try_emplace
        const uint32_t k = key();
        const uint64_t v = rng();
        const bool inserted = flat.try_emplace(k, v).second;
        EXPECT_EQ(inserted, ref.try_emplace(k, v).second);
        break;
      }
      case 3: {  // insert_or_assign
        const uint32_t k = key();
        const uint64_t v = rng();
        flat.insert_or_assign(k, v);
        ref.insert_or_assign(k, v);
        break;
      }
      case 4:
      case 5: {  // erase by key
        const uint32_t k = key();
        EXPECT_EQ(flat.erase(k), ref.erase(k));
        break;
      }
      case 6: {  // lookup
        const uint32_t k = key();
        auto fit = flat.find(k);
        auto rit = ref.find(k);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(fit->second, rit->second);
        }
        break;
      }
      case 7: {  // rare: clear, copy round-trip, or move round-trip
        const auto roll = rng() % 20;
        if (roll == 0) {
          flat.clear();
          ref.clear();
        } else if (roll == 1) {
          FlatMap<uint32_t, uint64_t> copy = flat;  // copy, then move back
          flat = std::move(copy);
        } else if (roll == 2) {
          FlatMap<uint32_t, uint64_t> moved = std::move(flat);  // steal, then back
          flat = std::move(moved);
        }
        break;
      }
      default: {  // operator[] increment
        const uint32_t k = key();
        flat[k] += 3;
        ref[k] += 3;
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Final full-state check both directions.
  for (const auto& [k, v] : ref) {
    auto it = flat.find(k);
    ASSERT_NE(it, flat.end()) << k;
    ASSERT_EQ(it->second, v);
  }
  for (const auto& [k, v] : flat) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << k;
    ASSERT_EQ(it->second, v);
  }
}

TEST(FlatMapFuzzTest, NonTrivialValuesUnderRandomOps) {
  // Same mirror, with a value type whose moves matter (heap strings).
  std::mt19937 rng(0xbeefcafe);
  FlatMap<uint32_t, std::string> flat;
  std::unordered_map<uint32_t, std::string> ref;
  auto key = [&] { return static_cast<uint32_t>(rng() % 101); };
  for (int op = 0; op < 20000; ++op) {
    switch (rng() % 4) {
      case 0:
      case 1: {
        const uint32_t k = key();
        std::string v(rng() % 50 + 1, static_cast<char>('a' + k % 26));
        flat.insert_or_assign(k, v);
        ref.insert_or_assign(k, std::move(v));
        break;
      }
      case 2: {
        const uint32_t k = key();
        EXPECT_EQ(flat.erase(k), ref.erase(k));
        break;
      }
      default: {
        const uint32_t k = key();
        auto fit = flat.find(k);
        auto rit = ref.find(k);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(fit->second, rit->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  for (const auto& [k, v] : ref) ASSERT_EQ(flat.at(k), v);
}

}  // namespace
}  // namespace locaware
