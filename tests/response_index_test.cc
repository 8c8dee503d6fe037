#include "cache/response_index.h"

#include <set>

#include <gtest/gtest.h>

#include "sim/sim_time.h"

namespace locaware::cache {
namespace {

using sim::kSecond;

ResponseIndexConfig SmallConfig() {
  ResponseIndexConfig cfg;
  cfg.max_filenames = 3;
  cfg.max_providers_per_file = 2;
  return cfg;
}

ProviderEntry P(PeerId peer, LocId loc = 0) { return ProviderEntry{peer, loc, 0}; }

/// Materializes a query list (LookupByKeywords takes a span; a braced list
/// needs a home with a lifetime).
std::vector<KeywordId> Q(std::initializer_list<KeywordId> ids) { return ids; }

// A small id universe: keywords by number, files by number. Keyword-id sets
// are sorted ascending per the id-plane contract.
constexpr KeywordId kAlpha = 1, kBeta = 2, kGamma = 3, kDelta = 4;
constexpr FileId kAbc = 10;   // {alpha, beta, gamma}
constexpr FileId kAd = 11;    // {alpha, delta}
const std::vector<KeywordId> kAbcKws{kAlpha, kBeta, kGamma};
const std::vector<KeywordId> kAdKws{kAlpha, kDelta};

/// Files f1..f4 used by the eviction tests: each has a shared keyword 100
/// and a unique keyword (200 + i).
std::vector<KeywordId> FKws(KeywordId i) {
  return {100, static_cast<KeywordId>(200 + i)};
}

TEST(ResponseIndexTest, RemoveProviderInvalidatesDepartedPeer) {
  ResponseIndex ri(SmallConfig());
  ri.AddProvider(kAbc, kAbcKws, P(7), 0);
  ri.AddProvider(kAbc, kAbcKws, P(8), 1);
  ri.AddProvider(kAd, kAdKws, P(7), 2);

  // Peer 7 departs: kAbc keeps provider 8; kAd loses its only provider and is
  // reported with its keywords so derived structures (Locaware's counting
  // Bloom filter) can delete them.
  const auto removed = ri.RemoveProvider(7);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].file, kAd);
  EXPECT_EQ(removed[0].keywords, kAdKws);
  EXPECT_FALSE(ri.Contains(kAd));
  auto hit = ri.LookupFile(kAbc, 3);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->providers.size(), 1u);
  EXPECT_EQ(hit->providers[0].provider, 8u);
  // A peer the index never knew is a clean no-op, and departure-driven drops
  // are counted apart from age expiries.
  EXPECT_TRUE(ri.RemoveProvider(99).empty());
  EXPECT_EQ(ri.stats().invalidations, 2u);
  EXPECT_EQ(ri.stats().expirations, 0u);
}

TEST(ResponseIndexTest, InsertAndExactLookup) {
  ResponseIndex ri(SmallConfig());
  const auto outcome = ri.AddProvider(kAbc, kAbcKws, P(7, 3), 100);
  EXPECT_TRUE(outcome.file_inserted);
  EXPECT_TRUE(outcome.provider_inserted);
  EXPECT_TRUE(outcome.evicted.empty());

  auto hit = ri.LookupFile(kAbc, 200);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->providers.size(), 1u);
  EXPECT_EQ(hit->providers[0].provider, 7u);
  EXPECT_EQ(hit->providers[0].loc_id, 3u);
  EXPECT_EQ(hit->providers[0].added_at, 100);
}

TEST(ResponseIndexTest, KeywordLookupUsesContainment) {
  ResponseIndex ri(SmallConfig());
  ri.AddProvider(kAbc, kAbcKws, P(1), 0);
  EXPECT_EQ(ri.LookupByKeywords(Q({kBeta}), 1).size(), 1u);
  EXPECT_EQ(ri.LookupByKeywords(Q({kAlpha, kGamma}), 1).size(), 1u);
  EXPECT_TRUE(ri.LookupByKeywords(Q({kDelta}), 1).empty());
  EXPECT_TRUE(ri.LookupByKeywords(Q({kAlpha, kDelta}), 1).empty());
}

TEST(ResponseIndexTest, MultipleFilesCanMatchOneQuery) {
  ResponseIndex ri(SmallConfig());
  ri.AddProvider(kAbc, kAbcKws, P(1), 0);
  ri.AddProvider(kAd, kAdKws, P(2), 0);
  EXPECT_EQ(ri.LookupByKeywords(Q({kAlpha}), 1).size(), 2u);
}

TEST(ResponseIndexTest, ProvidersAreMostRecentFirstAndBounded) {
  ResponseIndex ri(SmallConfig());  // 2 providers max
  ri.AddProvider(kAbc, kAbcKws, P(1), 10);
  ri.AddProvider(kAbc, kAbcKws, P(2), 20);
  ri.AddProvider(kAbc, kAbcKws, P(3), 30);  // evicts peer 1

  auto hit = ri.LookupFile(kAbc, 40);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->providers.size(), 2u);
  EXPECT_EQ(hit->providers[0].provider, 3u);  // "most recent pf entries
  EXPECT_EQ(hit->providers[1].provider, 2u);  //  replace the oldest ones"
}

TEST(ResponseIndexTest, ReAddingProviderRefreshesIt) {
  ResponseIndex ri(SmallConfig());
  ri.AddProvider(kAbc, kAbcKws, P(1, 5), 10);
  ri.AddProvider(kAbc, kAbcKws, P(2), 20);
  ri.AddProvider(kAbc, kAbcKws, P(1, 9), 30);  // refresh peer 1

  auto hit = ri.LookupFile(kAbc, 40);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->providers.size(), 2u);  // not duplicated
  EXPECT_EQ(hit->providers[0].provider, 1u);
  EXPECT_EQ(hit->providers[0].loc_id, 9u);  // locId updated on refresh
  EXPECT_EQ(hit->providers[0].added_at, 30);
}

TEST(ResponseIndexTest, CapacityEvictionReportsVictimWithKeywords) {
  ResponseIndex ri(SmallConfig());  // 3 files max
  ri.AddProvider(1, FKws(1), P(1), 1);
  ri.AddProvider(2, FKws(2), P(2), 2);
  ri.AddProvider(3, FKws(3), P(3), 3);
  const auto outcome = ri.AddProvider(4, FKws(4), P(4), 4);
  ASSERT_EQ(outcome.evicted.size(), 1u);
  EXPECT_EQ(outcome.evicted[0].file, 1u);  // LRU victim
  EXPECT_EQ(outcome.evicted[0].keywords, FKws(1));
  EXPECT_EQ(ri.num_filenames(), 3u);
  EXPECT_FALSE(ri.Contains(1));
}

TEST(ResponseIndexTest, LookupRefreshesLruPosition) {
  ResponseIndex ri(SmallConfig());
  ri.AddProvider(1, FKws(1), P(1), 1);
  ri.AddProvider(2, FKws(2), P(2), 2);
  ri.AddProvider(3, FKws(3), P(3), 3);
  // Touch file 1 so file 2 becomes the LRU victim.
  ri.LookupFile(1, 4);
  const auto outcome = ri.AddProvider(4, FKws(4), P(4), 5);
  ASSERT_EQ(outcome.evicted.size(), 1u);
  EXPECT_EQ(outcome.evicted[0].file, 2u);
  EXPECT_TRUE(ri.Contains(1));
}

TEST(ResponseIndexTest, FifoIgnoresUse) {
  ResponseIndexConfig cfg = SmallConfig();
  cfg.eviction = EvictionPolicy::kFifo;
  ResponseIndex ri(cfg);
  ri.AddProvider(1, FKws(1), P(1), 1);
  ri.AddProvider(2, FKws(2), P(2), 2);
  ri.AddProvider(3, FKws(3), P(3), 3);
  ri.LookupFile(1, 4);  // FIFO must not care
  const auto outcome = ri.AddProvider(4, FKws(4), P(4), 5);
  ASSERT_EQ(outcome.evicted.size(), 1u);
  EXPECT_EQ(outcome.evicted[0].file, 1u);
}

TEST(ResponseIndexTest, RandomEvictionStillBoundsCapacity) {
  ResponseIndexConfig cfg = SmallConfig();
  cfg.eviction = EvictionPolicy::kRandom;
  ResponseIndex ri(cfg);
  for (int i = 0; i < 50; ++i) {
    ri.AddProvider(static_cast<FileId>(i), FKws(static_cast<KeywordId>(i)),
                   P(static_cast<PeerId>(i)), i);
    EXPECT_LE(ri.num_filenames(), 3u);
  }
  EXPECT_EQ(ri.stats().evictions, 47u);
}

TEST(ResponseIndexTest, StaleProvidersAreFilteredFromLookups) {
  ResponseIndexConfig cfg = SmallConfig();
  cfg.entry_ttl = 10 * kSecond;
  ResponseIndex ri(cfg);
  ri.AddProvider(kAbc, kAbcKws, P(1), 0);
  ri.AddProvider(kAbc, kAbcKws, P(2), 5 * kSecond);

  // At t=12s provider 1 (age 12s) is stale, provider 2 (age 7s) is live.
  auto hit = ri.LookupFile(kAbc, 12 * kSecond);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->providers.size(), 1u);
  EXPECT_EQ(hit->providers[0].provider, 2u);

  // At t=20s everything is stale: no hit, but the entry still exists until a
  // sweep removes it (lookups never erase).
  EXPECT_FALSE(ri.LookupFile(kAbc, 20 * kSecond).has_value());
  EXPECT_TRUE(ri.Contains(kAbc));
}

TEST(ResponseIndexTest, ExpireStaleSweepsAndReportsKeywords) {
  ResponseIndexConfig cfg = SmallConfig();
  cfg.entry_ttl = 10 * kSecond;
  ResponseIndex ri(cfg);
  ri.AddProvider(kAbc, kAbcKws, P(1), 0);
  ri.AddProvider(2, FKws(2), P(2), 8 * kSecond);

  const auto removed = ri.ExpireStale(15 * kSecond);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].file, kAbc);
  EXPECT_EQ(removed[0].keywords, kAbcKws);
  EXPECT_FALSE(ri.Contains(kAbc));
  EXPECT_TRUE(ri.Contains(2));
  EXPECT_GT(ri.stats().expirations, 0u);
}

TEST(ResponseIndexTest, ExpireStaleNoTtlIsNoOp) {
  ResponseIndex ri(SmallConfig());
  ri.AddProvider(kAbc, kAbcKws, P(1), 0);
  EXPECT_TRUE(ri.ExpireStale(1000 * kSecond).empty());
  EXPECT_TRUE(ri.Contains(kAbc));
}

// ExpireStale skips its sweep while a lower bound on the oldest provider's
// age says nothing can be stale. The three cases below pin that the skip is
// exact: at the ttl boundary, after a refresh, and after the oldest provider
// left through another path.
TEST(ResponseIndexTest, ExpireStaleTtlBoundaryIsExact) {
  ResponseIndexConfig cfg = SmallConfig();
  cfg.entry_ttl = 10 * kSecond;
  ResponseIndex ri(cfg);
  const sim::SimTime added = 3 * kSecond;
  ri.AddProvider(kAbc, kAbcKws, P(1), added);

  EXPECT_TRUE(ri.ExpireStale(added + cfg.entry_ttl - 1).empty());
  EXPECT_TRUE(ri.ExpireStale(added + cfg.entry_ttl).empty());  // age == ttl: live
  EXPECT_TRUE(ri.Contains(kAbc));
  const auto removed = ri.ExpireStale(added + cfg.entry_ttl + 1);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].file, kAbc);
  EXPECT_EQ(ri.stats().expirations, 1u);

  // Emptied by the sweep, then refilled: the bound follows the new insert.
  ri.AddProvider(kAd, kAdKws, P(2), 40 * kSecond);
  EXPECT_TRUE(ri.ExpireStale(50 * kSecond).empty());
  EXPECT_EQ(ri.ExpireStale(50 * kSecond + 1).size(), 1u);
}

TEST(ResponseIndexTest, ExpireStaleHonoursRefreshedProvider) {
  ResponseIndexConfig cfg = SmallConfig();
  cfg.entry_ttl = 10 * kSecond;
  ResponseIndex ri(cfg);
  ri.AddProvider(kAbc, kAbcKws, P(1), 0);
  ri.AddProvider(kAbc, kAbcKws, P(1), 8 * kSecond);  // refresh

  // The bound still says 0, so this sweep runs, finds the refreshed provider
  // live, and tightens the bound to 8 s.
  EXPECT_TRUE(ri.ExpireStale(12 * kSecond).empty());
  EXPECT_EQ(ri.stats().expirations, 0u);
  EXPECT_TRUE(ri.ExpireStale(18 * kSecond).empty());
  EXPECT_TRUE(ri.Contains(kAbc));
  EXPECT_EQ(ri.ExpireStale(18 * kSecond + 1).size(), 1u);
  EXPECT_FALSE(ri.Contains(kAbc));
}

TEST(ResponseIndexTest, ExpireStaleAfterOldestProviderRemoved) {
  ResponseIndexConfig cfg = SmallConfig();
  cfg.entry_ttl = 10 * kSecond;
  ResponseIndex ri(cfg);
  ri.AddProvider(kAbc, kAbcKws, P(1), 0);
  ri.AddProvider(kAbc, kAbcKws, P(2), 5 * kSecond);
  ri.AddProvider(kAd, kAdKws, P(3), 7 * kSecond);
  EXPECT_TRUE(ri.RemoveProvider(1).empty());  // kAbc keeps provider 2

  // Provider 1 would have been stale at 11 s; the survivors are not.
  EXPECT_TRUE(ri.ExpireStale(11 * kSecond).empty());
  EXPECT_EQ(ri.stats().expirations, 0u);
  EXPECT_TRUE(ri.ExpireStale(15 * kSecond).empty());
  const auto removed = ri.ExpireStale(15 * kSecond + 1);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].file, kAbc);
  EXPECT_TRUE(ri.Contains(kAd));
  EXPECT_EQ(ri.ExpireStale(17 * kSecond + 1).size(), 1u);
  EXPECT_EQ(ri.num_filenames(), 0u);
}

TEST(ResponseIndexTest, TotalProviderCountTracksDuplication) {
  ResponseIndex ri(SmallConfig());
  ri.AddProvider(1, FKws(1), P(1), 1);
  ri.AddProvider(1, FKws(1), P(2), 2);
  ri.AddProvider(2, FKws(2), P(3), 3);
  EXPECT_EQ(ri.TotalProviderCount(), 3u);
}

TEST(ResponseIndexTest, FilesAndKeywordsAccessors) {
  ResponseIndex ri(SmallConfig());
  ri.AddProvider(kAbc, kAbcKws, P(1), 0);
  const auto files = ri.Files();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], kAbc);
  EXPECT_EQ(ri.KeywordsOf(kAbc), kAbcKws);
  EXPECT_DEATH(ri.KeywordsOf(999), "absent");
}

TEST(ResponseIndexTest, SweepsAndReportsAreSortedNotTableOrder) {
  // The backing table is unordered; everything the index *reports as a list*
  // must be deterministic regardless of table layout. The contract: Files(),
  // the expiry sweep, and the departed-provider sweep all act in sorted
  // FileId order. Insertion order here is deliberately scrambled so that a
  // container whose iteration order follows insertion (or a hash layout
  // correlated with it) would fail without the collect-and-sort rule.
  ResponseIndexConfig cfg;
  cfg.max_filenames = 16;
  cfg.entry_ttl = 10;
  ResponseIndex ri(cfg);
  const std::vector<FileId> scrambled = {9, 3, 14, 1, 12, 7, 5, 11};
  for (FileId f : scrambled) {
    ri.AddProvider(f, FKws(static_cast<KeywordId>(f)), P(42), /*now=*/0);
  }

  std::vector<FileId> expected = scrambled;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ri.Files(), expected);

  // Everything is stale at t=100: the sweep must report in sorted order.
  const auto expired = ri.ExpireStale(100);
  ASSERT_EQ(expired.size(), scrambled.size());
  for (size_t i = 0; i < expired.size(); ++i) {
    EXPECT_EQ(expired[i].file, expected[i]) << "expiry sweep not sorted at " << i;
  }

  // Same for the departure sweep.
  for (FileId f : scrambled) {
    ri.AddProvider(f, FKws(static_cast<KeywordId>(f)), P(42), /*now=*/200);
  }
  const auto invalidated = ri.RemoveProvider(42);
  ASSERT_EQ(invalidated.size(), scrambled.size());
  for (size_t i = 0; i < invalidated.size(); ++i) {
    EXPECT_EQ(invalidated[i].file, expected[i])
        << "departure sweep not sorted at " << i;
  }
}

TEST(ResponseIndexTest, StatsCountHitsAndMisses) {
  ResponseIndex ri(SmallConfig());
  ri.AddProvider(kAbc, kAbcKws, P(1), 0);
  ri.LookupByKeywords(Q({kAlpha}), 1);  // hit
  ri.LookupByKeywords(Q({kDelta}), 1);  // miss
  ri.LookupFile(kAbc, 1);            // hit
  EXPECT_EQ(ri.stats().lookups, 3u);
  EXPECT_EQ(ri.stats().hits, 2u);
  EXPECT_EQ(ri.stats().inserts, 1u);
}

TEST(ResponseIndexTest, SingleProviderModeModelsDicas) {
  ResponseIndexConfig cfg = SmallConfig();
  cfg.max_providers_per_file = 1;
  ResponseIndex ri(cfg);
  ri.AddProvider(kAbc, kAbcKws, P(1), 1);
  ri.AddProvider(kAbc, kAbcKws, P(2), 2);
  auto hit = ri.LookupFile(kAbc, 3);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->providers.size(), 1u);
  EXPECT_EQ(hit->providers[0].provider, 2u);  // newest replaces the only slot
}

TEST(ResponseIndexTest, InvalidConfigDies) {
  ResponseIndexConfig cfg;
  cfg.max_filenames = 0;
  EXPECT_DEATH(ResponseIndex{cfg}, "CHECK");
  cfg = ResponseIndexConfig{};
  cfg.max_providers_per_file = 0;
  EXPECT_DEATH(ResponseIndex{cfg}, "CHECK");
}

class EvictionPolicyTest : public ::testing::TestWithParam<EvictionPolicy> {};

/// Property: whatever the policy, capacity is a hard bound and every eviction
/// is reported exactly once with its keywords.
TEST_P(EvictionPolicyTest, CapacityIsRespectedAndEvictionsReported) {
  ResponseIndexConfig cfg;
  cfg.max_filenames = 5;
  cfg.max_providers_per_file = 2;
  cfg.eviction = GetParam();
  ResponseIndex ri(cfg);

  std::set<FileId> resident;
  size_t reported_evictions = 0;
  for (int i = 0; i < 100; ++i) {
    const FileId file = static_cast<FileId>(i);
    const auto outcome =
        ri.AddProvider(file, FKws(static_cast<KeywordId>(i)), P(i % 7), i);
    resident.insert(file);
    for (const auto& gone : outcome.evicted) {
      EXPECT_TRUE(resident.erase(gone.file) == 1) << gone.file;
      EXPECT_EQ(gone.keywords.size(), 2u);
      ++reported_evictions;
    }
    EXPECT_LE(ri.num_filenames(), 5u);
    EXPECT_EQ(ri.num_filenames(), resident.size());
  }
  EXPECT_EQ(reported_evictions, 95u);
  EXPECT_EQ(ri.stats().evictions, 95u);
}

INSTANTIATE_TEST_SUITE_P(Policies, EvictionPolicyTest,
                         ::testing::Values(EvictionPolicy::kLru, EvictionPolicy::kFifo,
                                           EvictionPolicy::kRandom),
                         [](const auto& info) {
                           return EvictionPolicyName(info.param);
                         });

}  // namespace
}  // namespace locaware::cache
