#include "cache/response_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/keyword_set.h"

namespace locaware::cache {

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kFifo:
      return "fifo";
    case EvictionPolicy::kRandom:
      return "random";
  }
  return "?";
}

ResponseIndex::ResponseIndex(const ResponseIndexConfig& config)
    : config_(config), eviction_rng_state_(config.eviction_seed | 1) {
  LOCAWARE_CHECK_GT(config.max_filenames, 0u);
  LOCAWARE_CHECK_GT(config.max_providers_per_file, 0u);
  // The tables are deliberately NOT pre-sized to max_filenames: an Entry
  // slot is fat (inline keyword/provider SmallVectors), the engine builds one
  // index per peer, and most peers' caches stay far below capacity — eager
  // full-capacity buffers cost hundreds of MB of cold pages at 10k peers
  // (measured 3x engine slowdown). Growth is amortized instead.
}

void ResponseIndex::AddPostings(FileId file, std::span<const KeywordId> keywords) {
  for (KeywordId kw : keywords) {
    inverted_[kw].push_back(file);
  }
}

void ResponseIndex::RemovePostings(FileId file, std::span<const KeywordId> keywords) {
  for (KeywordId kw : keywords) {
    auto it = inverted_.find(kw);
    LOCAWARE_CHECK(it != inverted_.end());
    auto pos = std::find(it->second.begin(), it->second.end(), file);
    LOCAWARE_CHECK(pos != it->second.end());
    it->second.erase(pos);  // preserves posting order for determinism
    if (it->second.empty()) inverted_.erase(it);
  }
}

ResponseIndex::UpdateOutcome ResponseIndex::AddProvider(
    FileId file, std::span<const KeywordId> sorted_keywords,
    const ProviderEntry& entry, sim::SimTime now) {
  // The id-plane contract (common/types.h): keyword sets travel sorted and
  // deduplicated. A violation would corrupt containment checks or double-
  // post the file under one keyword silently, so fail loudly.
  LOCAWARE_CHECK(std::is_sorted(sorted_keywords.begin(), sorted_keywords.end()))
      << "AddProvider keywords must be sorted ascending";
  LOCAWARE_CHECK(std::adjacent_find(sorted_keywords.begin(), sorted_keywords.end()) ==
                 sorted_keywords.end())
      << "AddProvider keywords must be deduplicated";
  UpdateOutcome outcome;

  auto it = entries_.find(file);
  if (it == entries_.end()) {
    while (entries_.size() >= config_.max_filenames) EvictOne(&outcome.evicted);
    use_order_.push_back(file);
    Entry fresh;
    fresh.keywords.assign(sorted_keywords.begin(), sorted_keywords.end());
    fresh.use_pos = std::prev(use_order_.end());
    it = entries_.try_emplace(file, std::move(fresh)).first;
    AddPostings(file, it->second.keywords);
    outcome.file_inserted = true;
  } else {
    Touch(file, &it->second);
  }

  Entry& e = it->second;
  // Refresh an existing provider: drop its old slot, re-insert at front.
  auto existing = std::find_if(e.providers.begin(), e.providers.end(),
                               [&](const ProviderEntry& p) {
                                 return p.provider == entry.provider;
                               });
  if (existing != e.providers.end()) e.providers.erase(existing);

  ProviderEntry stamped = entry;
  stamped.added_at = now;
  oldest_added_at_ = std::min(oldest_added_at_, now);
  e.providers.insert(e.providers.begin(), stamped);
  if (e.providers.size() > config_.max_providers_per_file) {
    e.providers.pop_back();  // most-recent replaces oldest (§4.1.2)
  }
  outcome.provider_inserted = true;
  ++stats_.inserts;
  return outcome;
}

bool ResponseIndex::PruneStale(Entry* entry, sim::SimTime now) {
  if (config_.entry_ttl <= 0) return !entry->providers.empty();
  auto stale = std::remove_if(entry->providers.begin(), entry->providers.end(),
                              [&](const ProviderEntry& p) {
                                return now - p.added_at > config_.entry_ttl;
                              });
  stats_.expirations += static_cast<uint64_t>(entry->providers.end() - stale);
  entry->providers.erase(stale, entry->providers.end());
  return !entry->providers.empty();
}

ProviderVec ResponseIndex::LiveProviders(const Entry& entry, sim::SimTime now) const {
  if (config_.entry_ttl <= 0) return entry.providers;
  ProviderVec live;
  for (const ProviderEntry& p : entry.providers) {
    if (now - p.added_at <= config_.entry_ttl) live.push_back(p);
  }
  return live;
}

std::vector<ResponseIndex::Hit> ResponseIndex::LookupByKeywords(
    std::span<const KeywordId> sorted_query, sim::SimTime now) {
  LOCAWARE_CHECK(std::is_sorted(sorted_query.begin(), sorted_query.end()))
      << "LookupByKeywords query must be sorted ascending";
  ++stats_.lookups;
  // Lookups filter stale providers from what they return but never erase
  // entries: removal happens only in AddProvider (eviction) and ExpireStale
  // (sweep), so owners with derived structures (Locaware's counting Bloom
  // filter) see every removal.
  std::vector<Hit> hits;
  if (sorted_query.empty()) {
    // An empty query is satisfied by every file (vacuous containment), same
    // as the string-era semantics. Sorted file order, not table order: the
    // hit list feeds provider selection, so iteration order is observable.
    for (FileId file : Files()) {
      auto it = entries_.find(file);
      LOCAWARE_CHECK(it != entries_.end());
      ProviderVec live = LiveProviders(it->second, now);
      if (!live.empty()) hits.push_back(Hit{file, std::move(live)});
    }
  } else {
    // Seed from the rarest query keyword's posting list; any query keyword
    // with no posting means no entry can contain them all.
    const FilePostingVec* seed =
        SmallestPosting(sorted_query, [&](KeywordId kw) -> const FilePostingVec* {
          auto it = inverted_.find(kw);
          return it == inverted_.end() ? nullptr : &it->second;
        });
    if (seed != nullptr) {
      for (FileId file : *seed) {
        auto it = entries_.find(file);
        LOCAWARE_CHECK(it != entries_.end());
        if (!ContainsAllIds(it->second.keywords, sorted_query)) continue;
        ProviderVec live = LiveProviders(it->second, now);
        if (live.empty()) continue;
        hits.push_back(Hit{file, std::move(live)});
      }
    }
  }
  for (Hit& h : hits) {
    auto it = entries_.find(h.file);
    LOCAWARE_CHECK(it != entries_.end());
    Touch(h.file, &it->second);
  }
  if (!hits.empty()) ++stats_.hits;
  return hits;
}

std::optional<ResponseIndex::Hit> ResponseIndex::LookupFile(FileId file,
                                                            sim::SimTime now) {
  ++stats_.lookups;
  auto it = entries_.find(file);
  if (it == entries_.end()) return std::nullopt;
  ProviderVec live = LiveProviders(it->second, now);
  if (live.empty()) return std::nullopt;
  Touch(file, &it->second);
  ++stats_.hits;
  return Hit{file, std::move(live)};
}

std::vector<ResponseIndex::EvictedFile> ResponseIndex::ExpireStale(sim::SimTime now) {
  std::vector<EvictedFile> removed;
  if (config_.entry_ttl <= 0 || now - config_.entry_ttl <= oldest_added_at_) {
    return removed;
  }
  // Collect-and-sort before acting: the table is unordered, so sweeping in
  // iteration order would let table layout leak into the removal report (and
  // through it into any order-sensitive consumer). Sorted keys make the
  // sweep a pure function of the index's *contents*, whatever container
  // backs it.
  oldest_added_at_ = std::numeric_limits<sim::SimTime>::max();
  for (FileId file : Files()) {
    auto it = entries_.find(file);
    LOCAWARE_CHECK(it != entries_.end());
    if (PruneStale(&it->second, now)) {
      for (const ProviderEntry& p : it->second.providers) {
        oldest_added_at_ = std::min(oldest_added_at_, p.added_at);
      }
      continue;
    }
    removed.push_back(EvictedFile{file, std::move(it->second.keywords)});
    EraseIt(it, removed.back().keywords);
  }
  return removed;
}

std::vector<ResponseIndex::EvictedFile> ResponseIndex::RemoveProvider(
    PeerId provider) {
  std::vector<EvictedFile> removed;
  // Same collect-and-sort rule as ExpireStale: act in sorted key order, never
  // table order.
  for (FileId file : Files()) {
    auto it = entries_.find(file);
    LOCAWARE_CHECK(it != entries_.end());
    ProviderVec& providers = it->second.providers;
    auto pos = std::find_if(providers.begin(), providers.end(),
                            [&](const ProviderEntry& p) {
                              return p.provider == provider;
                            });
    if (pos == providers.end()) continue;
    providers.erase(pos);
    ++stats_.invalidations;
    if (providers.empty()) {
      removed.push_back(EvictedFile{file, std::move(it->second.keywords)});
      EraseIt(it, removed.back().keywords);
    }
  }
  return removed;
}

void ResponseIndex::EraseIt(EntryMap::iterator it) {
  EraseIt(it, it->second.keywords);
}

void ResponseIndex::EraseIt(EntryMap::iterator it,
                            std::span<const KeywordId> keywords) {
  RemovePostings(it->first, keywords);
  use_order_.erase(it->second.use_pos);
  entries_.erase(it);
}

bool ResponseIndex::Erase(FileId file) {
  auto it = entries_.find(file);
  if (it == entries_.end()) return false;
  EraseIt(it);
  return true;
}

bool ResponseIndex::Contains(FileId file) const { return entries_.contains(file); }

size_t ResponseIndex::TotalProviderCount() const {
  size_t total = 0;
  for (const auto& [file, entry] : entries_) total += entry.providers.size();
  return total;
}

std::vector<FileId> ResponseIndex::Files() const {
  std::vector<FileId> out;
  out.reserve(entries_.size());
  for (const auto& [file, entry] : entries_) out.push_back(file);
  // Sorted, not table order: callers act on this list (sweeps, reports), and
  // the backing table's layout must never leak into observable behavior.
  std::sort(out.begin(), out.end());
  return out;
}

const KeywordVec& ResponseIndex::KeywordsOf(FileId file) const {
  auto it = entries_.find(file);
  LOCAWARE_CHECK(it != entries_.end()) << "KeywordsOf(" << file << ") absent";
  return it->second.keywords;
}

void ResponseIndex::Touch(FileId /*file*/, Entry* entry) {
  if (config_.eviction != EvictionPolicy::kLru) return;  // FIFO/random ignore use
  // Splice relocates the existing node (no realloc, iterator stays valid) —
  // the LRU refresh on every lookup and insert is allocation-free.
  use_order_.splice(use_order_.end(), use_order_, entry->use_pos);
}

void ResponseIndex::EvictOne(std::vector<EvictedFile>* evicted) {
  LOCAWARE_CHECK(!entries_.empty());
  FileId victim = kInvalidFile;
  if (config_.eviction == EvictionPolicy::kRandom) {
    // xorshift64* steps a private generator; cheap and reproducible.
    eviction_rng_state_ ^= eviction_rng_state_ >> 12;
    eviction_rng_state_ ^= eviction_rng_state_ << 25;
    eviction_rng_state_ ^= eviction_rng_state_ >> 27;
    const uint64_t r = eviction_rng_state_ * 0x2545F4914F6CDD1DULL;
    size_t idx = static_cast<size_t>(r % entries_.size());
    auto it = use_order_.begin();
    std::advance(it, idx);
    victim = *it;
  } else {
    victim = use_order_.front();  // LRU and FIFO both pop the front
  }
  auto entry_it = entries_.find(victim);
  LOCAWARE_CHECK(entry_it != entries_.end());
  // Keywords are moved into the eviction report first, so posting removal
  // reads them from there (the entry's own vector is empty afterwards).
  evicted->push_back(EvictedFile{victim, std::move(entry_it->second.keywords)});
  EraseIt(entry_it, evicted->back().keywords);
  ++stats_.evictions;
}

}  // namespace locaware::cache
