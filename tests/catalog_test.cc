#include "catalog/file_catalog.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "catalog/keyword_pool.h"
#include "catalog/workload.h"
#include "common/hash.h"
#include "common/keyword_set.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace locaware::catalog {
namespace {

TEST(KeywordPoolTest, GeneratesUniqueLowercaseWords) {
  Rng rng(1);
  KeywordPool pool(500, &rng);
  EXPECT_EQ(pool.size(), 500u);
  std::set<std::string> seen;
  for (const auto& w : pool.words()) {
    EXPECT_TRUE(seen.insert(w).second) << "duplicate " << w;
    EXPECT_GE(w.size(), 4u);
    EXPECT_LE(w.size(), 9u);
    for (char c : w) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(KeywordPoolTest, WordsSurviveTokenization) {
  // Keywords must be fixed points of the filename tokenizer.
  Rng rng(2);
  KeywordPool pool(100, &rng);
  for (const auto& w : pool.words()) {
    const auto tokens = TokenizeKeywords(w);
    ASSERT_EQ(tokens.size(), 1u);
    EXPECT_EQ(tokens[0], w);
  }
}

TEST(KeywordPoolTest, DeterministicForSeed) {
  Rng a(3), b(3);
  KeywordPool p1(50, &a), p2(50, &b);
  EXPECT_EQ(p1.words(), p2.words());
}

TEST(KeywordPoolTest, OutOfRangeAccessDies) {
  Rng rng(4);
  KeywordPool pool(10, &rng);
  EXPECT_DEATH(pool.word(10), "CHECK");
}

CatalogConfig PaperCatalog() {
  CatalogConfig cfg;
  cfg.num_files = 3000;
  cfg.keyword_pool_size = 9000;
  cfg.keywords_per_file = 3;
  return cfg;
}

TEST(FileCatalogTest, GeneratesPaperShape) {
  Rng rng(5);
  auto built = FileCatalog::Generate(PaperCatalog(), &rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const FileCatalog& cat = built.ValueOrDie();
  EXPECT_EQ(cat.num_files(), 3000u);
  EXPECT_EQ(cat.keywords_per_file(), 3u);
  EXPECT_EQ(cat.num_keywords(), 9000u);
  for (FileId f = 0; f < 100; ++f) {
    EXPECT_EQ(cat.keywords(f).size(), 3u);
    // Tokenizing the filename must recover exactly the interned keyword ids,
    // in filename order.
    const auto tokens = TokenizeKeywords(cat.filename(f));
    ASSERT_EQ(tokens.size(), cat.keywords(f).size());
    for (size_t i = 0; i < tokens.size(); ++i) {
      EXPECT_EQ(cat.LookupKeyword(tokens[i]), cat.keywords(f)[i]);
      EXPECT_EQ(cat.keyword(cat.keywords(f)[i]), tokens[i]);
    }
    // sorted_keywords is the ascending permutation of keywords.
    auto sorted = cat.keywords(f);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(cat.sorted_keywords(f), sorted);
  }
}

TEST(FileCatalogTest, KeywordTablesAreConsistent) {
  Rng rng(51);
  CatalogConfig cfg;
  cfg.num_files = 100;
  cfg.keyword_pool_size = 300;
  auto cat = std::move(FileCatalog::Generate(cfg, &rng)).ValueOrDie();
  for (KeywordId kw = 0; kw < cat.num_keywords(); ++kw) {
    EXPECT_EQ(cat.LookupKeyword(cat.keyword(kw)), kw);
    EXPECT_EQ(cat.KeywordWireBytes(kw), cat.keyword(kw).size());
  }
  EXPECT_EQ(cat.LookupKeyword("notaword"), kInvalidKeyword);
  for (FileId f = 0; f < cat.num_files(); ++f) {
    EXPECT_EQ(cat.FilenameWireBytes(f), cat.filename(f).size());
  }
}

TEST(FileCatalogTest, FilenamesAreUnique) {
  Rng rng(6);
  CatalogConfig cfg;
  cfg.num_files = 2000;
  cfg.keyword_pool_size = 300;  // force some collision pressure
  cfg.keywords_per_file = 2;
  auto cat = std::move(FileCatalog::Generate(cfg, &rng)).ValueOrDie();
  std::set<std::string> names;
  for (FileId f = 0; f < cat.num_files(); ++f) {
    EXPECT_TRUE(names.insert(cat.filename(f)).second) << cat.filename(f);
  }
}

TEST(FileCatalogTest, RejectsBadConfigs) {
  Rng rng(7);
  CatalogConfig cfg;
  cfg.num_files = 0;
  EXPECT_FALSE(FileCatalog::Generate(cfg, &rng).ok());

  cfg = CatalogConfig{};
  cfg.keywords_per_file = 0;
  EXPECT_FALSE(FileCatalog::Generate(cfg, &rng).ok());

  cfg = CatalogConfig{};
  cfg.keyword_pool_size = 2;
  cfg.keywords_per_file = 3;
  EXPECT_FALSE(FileCatalog::Generate(cfg, &rng).ok());
}

TEST(FileCatalogTest, MatchesImplementsContainment) {
  Rng rng(8);
  auto cat = std::move(FileCatalog::Generate(PaperCatalog(), &rng)).ValueOrDie();
  const auto& kws = cat.sorted_keywords(0);
  EXPECT_TRUE(cat.Matches(0, {kws[0]}));
  EXPECT_TRUE(cat.Matches(0, {kws[0], kws[2]}));
  EXPECT_TRUE(cat.Matches(0, kws));
  // A keyword of another file that file 0 does not carry breaks containment.
  KeywordId foreign = kInvalidKeyword;
  for (FileId f = 1; f < cat.num_files() && foreign == kInvalidKeyword; ++f) {
    for (KeywordId kw : cat.sorted_keywords(f)) {
      if (!ContainsAllIds(kws, std::span<const KeywordId>(&kw, 1))) {
        foreign = kw;
        break;
      }
    }
  }
  ASSERT_NE(foreign, kInvalidKeyword);
  std::vector<KeywordId> query{kws[0], foreign};
  std::sort(query.begin(), query.end());
  EXPECT_FALSE(cat.Matches(0, query));
}

// Oracle for the signature prefilter: for every file, MatchesSorted equals
// std::includes on queries of 1-6 keywords mixed from the file's own
// keywords and one of three other pools — random catalog keywords, keywords
// minted after construction, and keywords whose signature bit collides with
// one of the file's. Also checks that some non-matching queries passed the
// signature, i.e. that the collision pool reached the merge.
void ExpectSignatureNeverRejectsAMatch(FileCatalog& cat, uint64_t seed) {
  const auto slot = [](KeywordId kw) { return Mix64(kw) >> 58; };
  const size_t generated = cat.num_keywords();
  std::vector<KeywordId> minted;
  for (char c = 'a'; c <= 'p'; ++c) {
    std::string word = "mintedword";  // longer than any pool word: always new
    word += c;
    minted.push_back(cat.InternKeyword(word));
    EXPECT_GE(minted.back(), generated);
  }
  std::vector<std::vector<KeywordId>> by_bit(64);
  for (KeywordId kw = 0; kw < cat.num_keywords(); ++kw) {
    by_bit[slot(kw)].push_back(kw);
  }

  Rng rng(seed);
  size_t matches = 0;
  size_t collisions = 0;
  for (FileId f = 0; f < cat.num_files(); ++f) {
    const std::vector<KeywordId>& own = cat.sorted_keywords(f);
    uint64_t own_signature = 0;
    for (KeywordId kw : own) own_signature |= uint64_t{1} << slot(kw);
    ASSERT_EQ(cat.FileSignature(f), own_signature) << "file " << f;
    for (int q = 0; q < 8; ++q) {
      const uint64_t other_pool = rng.UniformInt(1, 3);
      const size_t size = rng.UniformInt(1, 6);
      std::vector<KeywordId> query;
      for (size_t i = 0; i < size; ++i) {
        const KeywordId mine = own[rng.UniformInt(0, own.size() - 1)];
        if (rng.Bernoulli(0.5)) {
          query.push_back(mine);
        } else if (other_pool == 1) {
          query.push_back(static_cast<KeywordId>(rng.UniformInt(0, generated - 1)));
        } else if (other_pool == 2) {
          query.push_back(minted[rng.UniformInt(0, minted.size() - 1)]);
        } else {
          const std::vector<KeywordId>& same_bit = by_bit[slot(mine)];
          query.push_back(same_bit[rng.UniformInt(0, same_bit.size() - 1)]);
        }
      }
      std::sort(query.begin(), query.end());
      query.erase(std::unique(query.begin(), query.end()), query.end());
      const bool expected =
          std::includes(own.begin(), own.end(), query.begin(), query.end());
      const uint64_t signature = KeywordSignature(query);
      ASSERT_EQ(cat.MatchesSorted(f, query, signature), expected)
          << "file " << f << " query " << cat.KeywordsToString(query);
      matches += expected;
      collisions += !expected && (own_signature & signature) == signature;
    }
  }
  EXPECT_GT(matches, cat.num_files());
  EXPECT_GT(collisions, 0u);
}

TEST(FileCatalogTest, SignatureNeverRejectsAMatch) {
  Rng rng(12);
  auto cat = std::move(FileCatalog::Generate(PaperCatalog(), &rng)).ValueOrDie();
  Rng other_rng(13);
  auto other = std::move(FileCatalog::Generate(PaperCatalog(), &other_rng)).ValueOrDie();
  ExpectSignatureNeverRejectsAMatch(cat, 1);
  ExpectSignatureNeverRejectsAMatch(other, 2);
}

TEST(FileCatalogTest, InternQueryKeywordsSortsAndRejectsUnknown) {
  Rng rng(10);
  auto cat = std::move(FileCatalog::Generate(PaperCatalog(), &rng)).ValueOrDie();
  // An empty query is vacuously contained in every file.
  EXPECT_TRUE(cat.Matches(0, {}));

  const auto& kws = cat.keywords(0);
  auto interned = cat.InternQueryKeywords(
      {cat.keyword(kws[2]), cat.keyword(kws[0]), cat.keyword(kws[2])});
  ASSERT_TRUE(interned.ok());
  // Sorted ascending, deduplicated.
  std::vector<KeywordId> expected{kws[0], kws[2]};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(interned.ValueOrDie(), expected);

  EXPECT_FALSE(cat.InternQueryKeywords({"zzzznotaword"}).ok());
  EXPECT_FALSE(cat.InternQueryKeywords({cat.keyword(kws[0]), "zzzznotaword"}).ok());
}

TEST(FileCatalogTest, LookupFilenameRoundTrip) {
  Rng rng(11);
  auto cat = std::move(FileCatalog::Generate(PaperCatalog(), &rng)).ValueOrDie();
  for (FileId f = 0; f < 100; ++f) {
    EXPECT_EQ(cat.LookupFilename(cat.filename(f)), f);
  }
  EXPECT_EQ(cat.LookupFilename("no such file"), FileCatalog::kInvalidFile);
}

// --- workload ---

class WorkloadFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(12);
    catalog_ = std::move(FileCatalog::Generate(PaperCatalog(), &rng)).ValueOrDie();
  }

  WorkloadConfig PaperWorkload(uint64_t n = 2000) {
    WorkloadConfig cfg;
    cfg.num_queries = n;
    return cfg;
  }

  FileCatalog catalog_;
};

TEST_F(WorkloadFixture, GeneratesRequestedCount) {
  Rng rng(13);
  auto wl = std::move(QueryWorkload::Generate(PaperWorkload(), catalog_, 1000, &rng))
                .ValueOrDie();
  EXPECT_EQ(wl.queries().size(), 2000u);
}

TEST_F(WorkloadFixture, QueryKeywordsComeFromTargetFile) {
  Rng rng(14);
  auto wl = std::move(QueryWorkload::Generate(PaperWorkload(), catalog_, 1000, &rng))
                .ValueOrDie();
  for (const QueryEvent& q : wl.queries()) {
    EXPECT_GE(q.keywords.size(), 1u);
    EXPECT_LE(q.keywords.size(), 3u);
    std::vector<KeywordId> sorted = q.keywords;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(catalog_.Matches(q.target, sorted))
        << "query " << q.id << " does not match its own target";
    EXPECT_LT(q.requester, 1000u);
  }
}

TEST_F(WorkloadFixture, SubmitTimesAreMonotoneAndPoissonish) {
  Rng rng(15);
  auto wl = std::move(QueryWorkload::Generate(PaperWorkload(5000), catalog_, 1000, &rng))
                .ValueOrDie();
  const auto& qs = wl.queries();
  for (size_t i = 1; i < qs.size(); ++i) {
    EXPECT_GE(qs[i].submit_time, qs[i - 1].submit_time);
  }
  // Aggregate rate 0.83/s -> 5000 queries in ~6024 s (±15%).
  const double span_s = sim::ToSeconds(qs.back().submit_time);
  EXPECT_NEAR(span_s, 5000.0 / 0.83, 5000.0 / 0.83 * 0.15);
}

TEST_F(WorkloadFixture, PopularityIsZipfSkewed) {
  Rng rng(16);
  auto wl = std::move(QueryWorkload::Generate(PaperWorkload(20000), catalog_, 1000, &rng))
                .ValueOrDie();
  std::map<FileId, int> counts;
  for (const QueryEvent& q : wl.queries()) ++counts[q.target];
  // The most popular file (rank 0) should dominate.
  const FileId top = wl.FileAtRank(0);
  int max_count = 0;
  for (const auto& [f, c] : counts) max_count = std::max(max_count, c);
  EXPECT_EQ(counts[top], max_count);
  // Zipf(1.0) over 3000 items: rank 0 carries ~1/ln(3000)/1 ≈ 11% of mass.
  EXPECT_GT(counts[top], 20000 * 0.05);
  // And a long tail exists: many files queried just a few times.
  int singletons = 0;
  for (const auto& [f, c] : counts) singletons += (c <= 2);
  EXPECT_GT(singletons, 100);
}

TEST_F(WorkloadFixture, RankOfFileInvertsFileAtRank) {
  Rng rng(25);
  auto wl = std::move(QueryWorkload::Generate(PaperWorkload(100), catalog_, 100, &rng))
                .ValueOrDie();
  for (size_t rank = 0; rank < 50; ++rank) {
    EXPECT_EQ(wl.RankOfFile(wl.FileAtRank(rank)), rank);
  }
  EXPECT_EQ(wl.RankOfFile(static_cast<FileId>(catalog_.num_files() + 5)),
            QueryWorkload::kUnknownRank);
}

TEST_F(WorkloadFixture, LoadedTraceHasUnknownRanks) {
  Rng rng(26);
  auto wl = std::move(QueryWorkload::Generate(PaperWorkload(50), catalog_, 50, &rng))
                .ValueOrDie();
  const std::string path = ::testing::TempDir() + "/locaware_rank_trace.txt";
  ASSERT_TRUE(wl.SaveTrace(path, catalog_).ok());
  auto loaded = std::move(QueryWorkload::LoadTrace(path, &catalog_)).ValueOrDie();
  EXPECT_EQ(loaded.RankOfFile(0), QueryWorkload::kUnknownRank);
  std::remove(path.c_str());
}

TEST_F(WorkloadFixture, DeterministicForSeed) {
  Rng r1(17), r2(17);
  auto w1 = std::move(QueryWorkload::Generate(PaperWorkload(500), catalog_, 100, &r1))
                .ValueOrDie();
  auto w2 = std::move(QueryWorkload::Generate(PaperWorkload(500), catalog_, 100, &r2))
                .ValueOrDie();
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(w1.queries()[i].requester, w2.queries()[i].requester);
    EXPECT_EQ(w1.queries()[i].target, w2.queries()[i].target);
    EXPECT_EQ(w1.queries()[i].submit_time, w2.queries()[i].submit_time);
    EXPECT_EQ(w1.queries()[i].keywords, w2.queries()[i].keywords);
  }
}

TEST_F(WorkloadFixture, RejectsBadConfigs) {
  Rng rng(18);
  EXPECT_FALSE(QueryWorkload::Generate(PaperWorkload(), catalog_, 0, &rng).ok());

  WorkloadConfig cfg = PaperWorkload();
  cfg.query_rate_per_peer_s = 0;
  EXPECT_FALSE(QueryWorkload::Generate(cfg, catalog_, 10, &rng).ok());

  cfg = PaperWorkload();
  cfg.min_query_keywords = 0;
  EXPECT_FALSE(QueryWorkload::Generate(cfg, catalog_, 10, &rng).ok());

  cfg = PaperWorkload();
  cfg.min_query_keywords = 3;
  cfg.max_query_keywords = 2;
  EXPECT_FALSE(QueryWorkload::Generate(cfg, catalog_, 10, &rng).ok());
}

TEST_F(WorkloadFixture, TraceSaveLoadRoundTrip) {
  Rng rng(19);
  auto wl = std::move(QueryWorkload::Generate(PaperWorkload(300), catalog_, 100, &rng))
                .ValueOrDie();
  const std::string path = ::testing::TempDir() + "/locaware_trace_test.txt";
  ASSERT_TRUE(wl.SaveTrace(path, catalog_).ok());

  auto loaded = QueryWorkload::LoadTrace(path, &catalog_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& a = wl.queries();
  const auto& b = loaded.ValueOrDie().queries();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].requester, b[i].requester);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].keywords, b[i].keywords);
  }
  std::remove(path.c_str());
}

TEST_F(WorkloadFixture, LoadTraceRejectsMissingAndMalformed) {
  EXPECT_FALSE(QueryWorkload::LoadTrace("/nonexistent/path/trace.txt", &catalog_).ok());

  const std::string path = ::testing::TempDir() + "/locaware_bad_trace.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("1 2 3\n", f);  // too few fields
    std::fclose(f);
  }
  EXPECT_FALSE(QueryWorkload::LoadTrace(path, &catalog_).ok());

  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("1 2 3 400\n", f);  // no keywords
    std::fclose(f);
  }
  EXPECT_FALSE(QueryWorkload::LoadTrace(path, &catalog_).ok());

  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // A repeated keyword: ambiguous under set semantics, rejected loudly.
    const std::string word = catalog_.keyword(0);
    std::fprintf(f, "1 2 3 400 %s %s\n", word.c_str(), word.c_str());
    std::fclose(f);
  }
  EXPECT_FALSE(QueryWorkload::LoadTrace(path, &catalog_).ok());
  std::remove(path.c_str());
}

TEST_F(WorkloadFixture, LoadTraceInternsUnknownKeywords) {
  // A trace may query words no generated filename carries (e.g. searches for
  // nonexistent content, used to measure failure rates): the word is
  // interned at the edge and the query simply never matches anything.
  const std::string path = ::testing::TempDir() + "/locaware_unknown_kw_trace.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("1 2 3 400 notacatalogword\n", f);
    std::fclose(f);
  }
  const size_t before = catalog_.num_keywords();
  auto loaded = QueryWorkload::LoadTrace(path, &catalog_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.ValueOrDie().queries().size(), 1u);
  const KeywordId minted = loaded.ValueOrDie().queries()[0].keywords[0];
  EXPECT_EQ(catalog_.num_keywords(), before + 1);
  EXPECT_EQ(minted, static_cast<KeywordId>(before));
  EXPECT_EQ(catalog_.keyword(minted), "notacatalogword");
  EXPECT_EQ(catalog_.LookupKeyword("notacatalogword"), minted);
  EXPECT_EQ(catalog_.KeywordWireBytes(minted), std::string("notacatalogword").size());
  for (FileId f = 0; f < catalog_.num_files(); ++f) {
    EXPECT_FALSE(catalog_.Matches(f, {minted}));
  }
  // Re-loading does not mint again.
  auto again = QueryWorkload::LoadTrace(path, &catalog_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(catalog_.num_keywords(), before + 1);
  std::remove(path.c_str());
}

TEST_F(WorkloadFixture, InitialPlacementShape) {
  Rng rng(20);
  const auto placement = AssignInitialFiles(1000, 3, catalog_, &rng);
  ASSERT_EQ(placement.size(), 1000u * 3u);
  size_t total = 0;
  for (size_t p = 0; p < 1000; ++p) {
    const std::span<const FileId> files(placement.data() + p * 3, 3);
    EXPECT_EQ(files.size(), 3u);
    std::set<FileId> unique(files.begin(), files.end());
    EXPECT_EQ(unique.size(), 3u);  // distinct per peer
    for (FileId f : files) EXPECT_LT(f, catalog_.num_files());
    total += files.size();
  }
  EXPECT_EQ(total, 3000u);
}

TEST_F(WorkloadFixture, PlacementLeavesSomeFilesUnhosted) {
  // 3000 file slots over 3000 files: ~1/e of files get no initial provider.
  // This is the structural success-rate ceiling discussed in EXPERIMENTS.md.
  Rng rng(21);
  const auto placement = AssignInitialFiles(1000, 3, catalog_, &rng);
  std::set<FileId> hosted(placement.begin(), placement.end());
  const double hosted_fraction =
      static_cast<double>(hosted.size()) / static_cast<double>(catalog_.num_files());
  EXPECT_NEAR(hosted_fraction, 1.0 - std::exp(-1.0), 0.05);
}

TEST_F(WorkloadFixture, FlatPlacementRowsMatchPerPeerSamples) {
  // Reference: the nested layout's builder, one SampleIndices result vector
  // per peer from the same stream. Row p of the flat layout must hold
  // exactly peer p's sample, and both streams must end in the same state.
  // The k = 70 case takes the sampler's dense branch.
  for (const size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{8}, size_t{70}}) {
    for (const size_t peers : {size_t{0}, size_t{1}, size_t{257}}) {
      Rng flat_rng(31 + k);
      Rng ref_rng(31 + k);
      const std::vector<FileId> flat = AssignInitialFiles(peers, k, catalog_, &flat_rng);
      ASSERT_EQ(flat.size(), peers * k);
      for (size_t p = 0; p < peers; ++p) {
        const std::vector<size_t> expected = ref_rng.SampleIndices(catalog_.num_files(), k);
        for (size_t i = 0; i < k; ++i) {
          ASSERT_EQ(flat[p * k + i], expected[i])
              << "k=" << k << " peer " << p << " slot " << i;
        }
      }
      EXPECT_EQ(flat_rng.NextU64(), ref_rng.NextU64()) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace locaware::catalog
