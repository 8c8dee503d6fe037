// Model-based randomized testing: drive ResponseIndex with long random
// operation sequences and compare every observable against a deliberately
// naive reference implementation. Divergence means one of them is wrong —
// and the reference is simple enough to trust.
#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "cache/response_index.h"
#include "common/keyword_set.h"
#include "common/rng.h"

namespace locaware::cache {
namespace {

/// Straight-line reference for ResponseIndex with LRU or FIFO eviction.
class ReferenceIndex {
 public:
  ReferenceIndex(size_t max_files, size_t max_providers, sim::SimTime ttl,
                 EvictionPolicy eviction)
      : max_files_(max_files),
        max_providers_(max_providers),
        ttl_(ttl),
        eviction_(eviction) {}

  std::vector<FileId> AddProvider(FileId file, const std::vector<KeywordId>& kws,
                                  PeerId provider, LocId loc, sim::SimTime now) {
    std::vector<FileId> evicted;
    auto it = Find(file);
    if (it == entries_.end()) {
      while (entries_.size() >= max_files_) {
        evicted.push_back(entries_.front().file);
        entries_.erase(entries_.begin());
      }
      entries_.push_back(Entry{file, next_seq_++, kws, {}});
      it = std::prev(entries_.end());
    } else {
      it = Touch(it);
    }
    auto& provs = it->providers;
    provs.erase(std::remove_if(provs.begin(), provs.end(),
                               [&](const auto& p) { return p.provider == provider; }),
                provs.end());
    provs.insert(provs.begin(), ProviderEntry{provider, loc, now});
    if (provs.size() > max_providers_) provs.pop_back();
    return evicted;
  }

  std::optional<std::vector<ProviderEntry>> Lookup(FileId file, sim::SimTime now) {
    auto it = Find(file);
    if (it == entries_.end()) return std::nullopt;
    std::vector<ProviderEntry> live;
    for (const auto& p : it->providers) {
      if (ttl_ <= 0 || now - p.added_at <= ttl_) live.push_back(p);
    }
    if (live.empty()) return std::nullopt;
    Touch(it);
    return live;
  }

  /// Files matching the query (with >=1 live provider) in insertion order,
  /// LRU-refreshing each match in that order like the real index does.
  std::vector<FileId> MatchingFiles(const std::vector<KeywordId>& query,
                                    sim::SimTime now) {
    std::vector<const Entry*> by_insertion;
    for (const auto& e : entries_) by_insertion.push_back(&e);
    std::sort(by_insertion.begin(), by_insertion.end(),
              [](const Entry* a, const Entry* b) { return a->seq < b->seq; });
    std::vector<FileId> out;
    for (const Entry* e : by_insertion) {
      if (!ContainsAllIds(e->keywords, query)) continue;
      bool any_live = false;
      for (const auto& p : e->providers) {
        if (ttl_ <= 0 || now - p.added_at <= ttl_) any_live = true;
      }
      if (any_live) out.push_back(e->file);
    }
    for (FileId file : out) Touch(Find(file));
    return out;
  }

  std::vector<FileId> Expire(sim::SimTime now) {
    std::vector<FileId> removed;
    if (ttl_ <= 0) return removed;
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto& provs = it->providers;
      provs.erase(std::remove_if(provs.begin(), provs.end(),
                                 [&](const auto& p) { return now - p.added_at > ttl_; }),
                  provs.end());
      if (provs.empty()) {
        removed.push_back(it->file);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(removed.begin(), removed.end());
    return removed;
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    FileId file;
    uint64_t seq;  // insertion sequence number
    std::vector<KeywordId> keywords;
    std::vector<ProviderEntry> providers;
  };

  std::vector<Entry>::iterator Find(FileId file) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&](const Entry& e) { return e.file == file; });
  }
  /// Moves the entry to the back (most recently used) under LRU; FIFO
  /// ignores use. Returns the entry's new position.
  std::vector<Entry>::iterator Touch(std::vector<Entry>::iterator it) {
    if (eviction_ != EvictionPolicy::kLru) return it;
    Entry copy = *it;
    entries_.erase(it);
    entries_.push_back(std::move(copy));
    return std::prev(entries_.end());
  }

  size_t max_files_;
  size_t max_providers_;
  sim::SimTime ttl_;
  EvictionPolicy eviction_;
  uint64_t next_seq_ = 0;
  std::vector<Entry> entries_;  // front = next victim
};

/// 32 bytes: gtest prints the parameter's size in each case's listed name,
/// so the seed is 32-bit to make room for the policy without renaming cases.
struct ModelParams {
  size_t max_filenames;
  size_t max_providers;
  int64_t ttl_s;  // 0 = no expiry
  uint32_t seed;
  EvictionPolicy eviction = EvictionPolicy::kLru;
};
static_assert(sizeof(ModelParams) == 32);

class ResponseIndexModelTest : public ::testing::TestWithParam<ModelParams> {};

TEST_P(ResponseIndexModelTest, AgreesWithReferenceOverRandomOps) {
  const ModelParams params = GetParam();
  ResponseIndexConfig cfg;
  cfg.max_filenames = params.max_filenames;
  cfg.max_providers_per_file = params.max_providers;
  cfg.entry_ttl = params.ttl_s * sim::kSecond;
  cfg.eviction = params.eviction;
  ResponseIndex real(cfg);
  ReferenceIndex reference(params.max_filenames, params.max_providers, cfg.entry_ttl,
                           params.eviction);

  // A small universe of files so operations collide often. Keyword-id
  // layout: shared ids 0..2, mid ids 10..14, a unique id 100+i per file —
  // sorted ascending by construction.
  struct FileDef {
    FileId file;
    std::vector<KeywordId> kws;
  };
  std::vector<FileDef> files;
  for (KeywordId i = 0; i < 12; ++i) {
    files.push_back(FileDef{static_cast<FileId>(i),
                            {i % 3, static_cast<KeywordId>(10 + i % 5),
                             static_cast<KeywordId>(100 + i)}});
  }

  Rng rng(params.seed);
  sim::SimTime now = 0;
  for (int step = 0; step < 3000; ++step) {
    now += static_cast<sim::SimTime>(rng.UniformInt(1, 2 * sim::kSecond));
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    const auto& [file, kws] = files[rng.UniformInt(0, files.size() - 1)];

    if (op < 5) {  // AddProvider
      const PeerId provider = static_cast<PeerId>(rng.UniformInt(0, 9));
      const LocId loc = static_cast<LocId>(rng.UniformInt(0, 23));
      const auto outcome =
          real.AddProvider(file, kws, ProviderEntry{provider, loc, 0}, now);
      const auto expected_evicted =
          reference.AddProvider(file, kws, provider, loc, now);
      std::vector<FileId> got_evicted;
      for (const auto& e : outcome.evicted) got_evicted.push_back(e.file);
      EXPECT_EQ(got_evicted, expected_evicted) << "step " << step;
    } else if (op < 7) {  // exact lookup
      const auto got = real.LookupFile(file, now);
      const auto expected = reference.Lookup(file, now);
      ASSERT_EQ(got.has_value(), expected.has_value()) << "step " << step;
      if (got.has_value()) {
        ASSERT_EQ(got->providers.size(), expected->size()) << "step " << step;
        for (size_t i = 0; i < expected->size(); ++i) {
          EXPECT_EQ(got->providers[i].provider, (*expected)[i].provider);
          EXPECT_EQ(got->providers[i].loc_id, (*expected)[i].loc_id);
          EXPECT_EQ(got->providers[i].added_at, (*expected)[i].added_at);
        }
      }
    } else if (op < 9) {  // keyword lookup on one of the file's keywords: the
                          // shared ids kws[0] and kws[1] match several files,
                          // which must come back (and be touched) in
                          // insertion order; the unique kws[2] matches one
      const std::vector<KeywordId> query{kws[rng.UniformInt(0, 2)]};
      std::vector<FileId> got;
      for (const auto& hit : real.LookupByKeywords(query, now)) {
        got.push_back(hit.file);
      }
      EXPECT_EQ(got, reference.MatchingFiles(query, now)) << "step " << step;
    } else {  // expiry sweep
      std::vector<ResponseIndex::EvictedFile> expired;
      real.ExpireStale(now, &expired);
      std::vector<FileId> got;
      for (const auto& e : expired) got.push_back(e.file);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, reference.Expire(now)) << "step " << step;
    }
    ASSERT_EQ(real.num_filenames(), reference.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ResponseIndexModelTest,
    ::testing::Values(ModelParams{3, 1, 0, 1}, ModelParams{3, 2, 5, 2},
                      ModelParams{5, 8, 0, 3}, ModelParams{5, 3, 2, 4},
                      ModelParams{12, 2, 3, 5}, ModelParams{2, 1, 1, 6},
                      ModelParams{3, 2, 0, 7, EvictionPolicy::kFifo},
                      ModelParams{5, 3, 2, 8, EvictionPolicy::kFifo},
                      ModelParams{8, 1, 4, 9, EvictionPolicy::kFifo}),
    [](const auto& info) {
      return "cap" + std::to_string(info.param.max_filenames) + "prov" +
             std::to_string(info.param.max_providers) + "ttl" +
             std::to_string(info.param.ttl_s) + "seed" +
             std::to_string(info.param.seed) +
             (info.param.eviction == EvictionPolicy::kFifo ? "fifo" : "");
    });

}  // namespace
}  // namespace locaware::cache
