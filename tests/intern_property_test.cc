// The interned-symbol contract, property-tested: every id-plane fast path
// (catalog matching, response-index lookups, group hashing, Bloom probe
// hashes, wire-size accounting) must agree exactly with a string-based
// reference implementation of the same rule.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "cache/response_index.h"
#include "catalog/file_catalog.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/group_hash.h"
#include "overlay/message.h"

namespace locaware {
namespace {

using catalog::CatalogConfig;
using catalog::FileCatalog;

CatalogConfig DenseCatalog() {
  CatalogConfig cfg;
  cfg.num_files = 300;
  cfg.keyword_pool_size = 90;  // heavy keyword reuse -> multi-file matches
  cfg.keywords_per_file = 3;
  return cfg;
}

/// Keyword strings of an id set, resolved through the catalog.
std::vector<std::string> Strings(const FileCatalog& cat,
                                 const std::vector<KeywordId>& kws) {
  std::vector<std::string> out;
  for (KeywordId kw : kws) out.push_back(cat.keyword(kw));
  return out;
}

/// Draws a random query: 1..3 keyword ids, usually from a real file (so hits
/// exist), sometimes fully random (so misses exist). Sorted + deduplicated.
std::vector<KeywordId> RandomQuery(const FileCatalog& cat, Rng* rng) {
  std::vector<KeywordId> kws;
  const size_t n = static_cast<size_t>(rng->UniformInt(1, 3));
  if (rng->Bernoulli(0.7)) {
    const FileId f = static_cast<FileId>(rng->UniformInt(0, cat.num_files() - 1));
    const auto& file_kws = cat.keywords(f);
    for (size_t pos : rng->SampleIndices(file_kws.size(), std::min(n, file_kws.size()))) {
      kws.push_back(file_kws[pos]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      kws.push_back(static_cast<KeywordId>(rng->UniformInt(0, cat.num_keywords() - 1)));
    }
  }
  std::sort(kws.begin(), kws.end());
  kws.erase(std::unique(kws.begin(), kws.end()), kws.end());
  return kws;
}

TEST(InternPropertyTest, CatalogMatchesAgreesWithStringReference) {
  Rng rng(11);
  auto cat = std::move(FileCatalog::Generate(DenseCatalog(), &rng)).ValueOrDie();
  Rng query_rng(12);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<KeywordId> query = RandomQuery(cat, &query_rng);
    const std::vector<std::string> query_strings = Strings(cat, query);
    // Reference: the string-era rule, string compares over tokenized names.
    std::set<FileId> expected;
    for (FileId f = 0; f < cat.num_files(); ++f) {
      if (ContainsAllKeywords(TokenizeKeywords(cat.filename(f)), query_strings)) {
        expected.insert(f);
      }
    }
    std::set<FileId> got;
    for (FileId f = 0; f < cat.num_files(); ++f) {
      if (cat.Matches(f, query)) got.insert(f);
    }
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(InternPropertyTest, ResponseIndexLookupAgreesWithStringReference) {
  Rng rng(21);
  auto cat = std::move(FileCatalog::Generate(DenseCatalog(), &rng)).ValueOrDie();

  cache::ResponseIndexConfig cfg;
  cfg.max_filenames = 50;
  cache::ResponseIndex ri(cfg);
  // A string-mirror of the index contents: filename string -> FileId.
  std::vector<FileId> resident;

  Rng op_rng(22);
  sim::SimTime now = 0;
  for (int step = 0; step < 800; ++step) {
    ++now;
    if (op_rng.Bernoulli(0.4)) {
      const FileId f = static_cast<FileId>(op_rng.UniformInt(0, cat.num_files() - 1));
      const auto outcome = ri.AddProvider(
          f, cat.sorted_keywords(f),
          cache::ProviderEntry{static_cast<PeerId>(op_rng.UniformInt(0, 30)), 0, 0},
          now);
      if (outcome.file_inserted) resident.push_back(f);
      for (const auto& gone : outcome.evicted) {
        resident.erase(std::find(resident.begin(), resident.end(), gone.file));
      }
    } else {
      const std::vector<KeywordId> query = RandomQuery(cat, &op_rng);
      const std::vector<std::string> query_strings = Strings(cat, query);
      // Reference hit set: string containment over the resident files'
      // tokenized filenames.
      std::set<FileId> expected;
      for (FileId f : resident) {
        if (ContainsAllKeywords(TokenizeKeywords(cat.filename(f)), query_strings)) {
          expected.insert(f);
        }
      }
      std::set<FileId> got;
      for (const auto& hit : ri.LookupByKeywords(query, now)) got.insert(hit.file);
      ASSERT_EQ(got, expected) << "step " << step;
    }
  }
}

TEST(InternPropertyTest, GroupHashesAgreeWithStringReference) {
  Rng rng(31);
  auto cat = std::move(FileCatalog::Generate(DenseCatalog(), &rng)).ValueOrDie();
  for (uint16_t m : {1, 4, 8, 64}) {
    for (FileId f = 0; f < 50; ++f) {
      // Whole-file group: precomputed set hash == string-era filename hash.
      EXPECT_EQ(core::GroupOfSetFnv(cat.FileSetFnv(f), m),
                core::GroupOfFilename(cat.filename(f), m));
    }
    Rng query_rng(32);
    for (int trial = 0; trial < 100; ++trial) {
      const std::vector<KeywordId> query = RandomQuery(cat, &query_rng);
      EXPECT_EQ(core::GroupOfSetFnv(cat.CanonicalSetFnv(query), m),
                core::GroupOfKeywords(Strings(cat, query), m));
      for (KeywordId kw : query) {
        EXPECT_EQ(core::GroupOfKeywordFnv(cat.KeywordFnv(kw), m),
                  core::GroupOfKeyword(cat.keyword(kw), m));
      }
    }
  }
}

TEST(InternPropertyTest, BloomProbeHashesAgreeWithStringInserts) {
  Rng rng(41);
  auto cat = std::move(FileCatalog::Generate(DenseCatalog(), &rng)).ValueOrDie();
  bloom::BloomFilter by_hash(1200, 4);
  bloom::BloomFilter by_string(1200, 4);
  for (KeywordId kw = 0; kw < cat.num_keywords(); ++kw) {
    EXPECT_EQ(by_hash.ProbePositions(cat.KeywordBloomHash(kw)),
              by_string.ProbePositions(cat.keyword(kw)));
  }
  for (KeywordId kw = 0; kw < cat.num_keywords(); kw += 3) {
    by_hash.Insert(cat.KeywordBloomHash(kw));
    by_string.Insert(cat.keyword(kw));
  }
  EXPECT_EQ(by_hash, by_string);
  for (KeywordId kw = 0; kw < cat.num_keywords(); ++kw) {
    EXPECT_EQ(by_hash.MayContain(cat.KeywordBloomHash(kw)),
              by_string.MayContain(cat.keyword(kw)));
  }
}

TEST(InternRegressionTest, EstimateSizeBytesIsByteIdenticalToStringEncoding) {
  Rng rng(51);
  auto cat = std::move(FileCatalog::Generate(DenseCatalog(), &rng)).ValueOrDie();
  Rng query_rng(52);

  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<KeywordId> query = RandomQuery(cat, &query_rng);
    const std::vector<std::string> query_strings = Strings(cat, query);

    overlay::QueryMessage q;
    q.qid = trial;
    q.origin = 1;
    q.keywords = query;
    // String-era reference: header(23) + address(6) + locid(1) + ttl/hops(2)
    // + per keyword (len + 1).
    size_t expected_q = 23 + 6 + 1 + 2;
    for (const std::string& kw : query_strings) expected_q += kw.size() + 1;
    EXPECT_EQ(EstimateSizeBytes(q, cat), expected_q) << "trial " << trial;

    overlay::ResponseMessage r;
    r.qid = trial;
    r.query_keywords = query;
    const size_t num_records = static_cast<size_t>(query_rng.UniformInt(0, 3));
    size_t expected_r = 23 + 2 * 6 + 1 + 1;
    for (const std::string& kw : query_strings) expected_r += kw.size() + 1;
    for (size_t i = 0; i < num_records; ++i) {
      overlay::ResponseRecord rec;
      rec.file = static_cast<FileId>(query_rng.UniformInt(0, cat.num_files() - 1));
      const size_t providers = static_cast<size_t>(query_rng.UniformInt(1, 3));
      for (size_t p = 0; p < providers; ++p) {
        rec.providers.push_back(overlay::ProviderInfo{static_cast<PeerId>(p), 0});
      }
      expected_r += cat.filename(rec.file).size() + 1;
      expected_r += providers * (6 + 1);
      r.records.push_back(std::move(rec));
    }
    EXPECT_EQ(EstimateSizeBytes(r, cat), expected_r) << "trial " << trial;
  }
}

}  // namespace
}  // namespace locaware
