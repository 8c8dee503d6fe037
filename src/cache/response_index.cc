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
  // The entry array is deliberately NOT pre-sized to max_filenames: an Entry
  // is fat (inline keyword/provider SmallVectors), the engine builds one
  // index per peer, and most peers' caches stay far below capacity — eager
  // full-capacity buffers cost hundreds of MB of cold pages at 10k peers
  // (measured 3x engine slowdown). Growth is amortized instead.
}

ResponseIndex::Entry* ResponseIndex::Find(FileId file) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.file == file; });
  return it == entries_.end() ? nullptr : &*it;
}

const ResponseIndex::Entry* ResponseIndex::Find(FileId file) const {
  return const_cast<ResponseIndex*>(this)->Find(file);
}

ResponseIndex::UpdateOutcome ResponseIndex::AddProvider(
    FileId file, std::span<const KeywordId> sorted_keywords,
    const ProviderEntry& entry, sim::SimTime now) {
  // The id-plane contract (common/types.h): keyword sets travel sorted and
  // deduplicated. A violation would corrupt containment checks silently, so
  // fail loudly.
  LOCAWARE_CHECK(std::is_sorted(sorted_keywords.begin(), sorted_keywords.end()))
      << "AddProvider keywords must be sorted ascending";
  LOCAWARE_CHECK(std::adjacent_find(sorted_keywords.begin(), sorted_keywords.end()) ==
                 sorted_keywords.end())
      << "AddProvider keywords must be deduplicated";
  UpdateOutcome outcome;

  Entry* e = Find(file);
  if (e == nullptr) {
    while (entries_.size() >= config_.max_filenames) EvictOne(&outcome.evicted);
    e = &entries_.emplace_back();
    e->signature = KeywordSignature(sorted_keywords);
    e->last_use = ++use_clock_;
    e->file = file;
    e->keywords.assign(sorted_keywords.begin(), sorted_keywords.end());
    outcome.file_inserted = true;
  } else {
    Touch(e);
  }

  // Refresh an existing provider: drop its old slot, re-insert at front.
  auto existing = std::find_if(e->providers.begin(), e->providers.end(),
                               [&](const ProviderEntry& p) {
                                 return p.provider == entry.provider;
                               });
  if (existing != e->providers.end()) e->providers.erase(existing);

  ProviderEntry stamped = entry;
  stamped.added_at = now;
  oldest_added_at_ = std::min(oldest_added_at_, now);
  e->providers.insert(e->providers.begin(), stamped);
  if (e->providers.size() > config_.max_providers_per_file) {
    e->providers.pop_back();  // most-recent replaces oldest (§4.1.2)
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
  const uint64_t signature = KeywordSignature(sorted_query);
  for (Entry& e : entries_) {
    if ((e.signature & signature) != signature) continue;
    if (!ContainsAllIds(e.keywords, sorted_query)) continue;
    ProviderVec live = LiveProviders(e, now);
    if (live.empty()) continue;
    Touch(&e);
    hits.push_back(Hit{e.file, std::move(live)});
  }
  if (!hits.empty()) ++stats_.hits;
  return hits;
}

std::optional<ResponseIndex::Hit> ResponseIndex::LookupFile(FileId file,
                                                            sim::SimTime now) {
  ++stats_.lookups;
  Entry* e = Find(file);
  if (e == nullptr) return std::nullopt;
  ProviderVec live = LiveProviders(*e, now);
  if (live.empty()) return std::nullopt;
  Touch(e);
  ++stats_.hits;
  return Hit{file, std::move(live)};
}

template <typename DropFn>
size_t ResponseIndex::RemoveEntries(DropFn&& drop, std::vector<EvictedFile>* removed) {
  if (removed != nullptr) removed->clear();
  size_t kept = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (drop(e)) {
      if (removed != nullptr) {
        removed->push_back(EvictedFile{e.file, std::move(e.keywords)});
      }
      continue;
    }
    if (kept != i) entries_[kept] = std::move(e);
    ++kept;
  }
  const size_t count = entries_.size() - kept;
  entries_.erase(entries_.begin() + kept, entries_.end());
  return count;
}

size_t ResponseIndex::ExpireStale(sim::SimTime now, std::vector<EvictedFile>* removed) {
  if (config_.entry_ttl <= 0 || now - config_.entry_ttl <= oldest_added_at_) {
    if (removed != nullptr) removed->clear();
    return 0;
  }
  oldest_added_at_ = std::numeric_limits<sim::SimTime>::max();
  return RemoveEntries(
      [&](Entry& e) {
        if (!PruneStale(&e, now)) return true;
        for (const ProviderEntry& p : e.providers) {
          oldest_added_at_ = std::min(oldest_added_at_, p.added_at);
        }
        return false;
      },
      removed);
}

size_t ResponseIndex::RemoveProvider(PeerId provider,
                                     std::vector<EvictedFile>* removed) {
  return RemoveEntries(
      [&](Entry& e) {
        auto pos = std::find_if(e.providers.begin(), e.providers.end(),
                                [&](const ProviderEntry& p) {
                                  return p.provider == provider;
                                });
        if (pos == e.providers.end()) return false;
        e.providers.erase(pos);
        ++stats_.invalidations;
        return e.providers.empty();
      },
      removed);
}

bool ResponseIndex::Contains(FileId file) const { return Find(file) != nullptr; }

size_t ResponseIndex::TotalProviderCount() const {
  size_t total = 0;
  for (const Entry& e : entries_) total += e.providers.size();
  return total;
}

std::vector<FileId> ResponseIndex::Files() const {
  std::vector<FileId> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.file);
  std::sort(out.begin(), out.end());
  return out;
}

const KeywordVec& ResponseIndex::KeywordsOf(FileId file) const {
  const Entry* e = Find(file);
  LOCAWARE_CHECK(e != nullptr) << "KeywordsOf(" << file << ") absent";
  return e->keywords;
}

void ResponseIndex::Touch(Entry* entry) {
  if (config_.eviction != EvictionPolicy::kLru) return;  // FIFO/random ignore use
  entry->last_use = ++use_clock_;
}

void ResponseIndex::EvictOne(std::vector<EvictedFile>* evicted) {
  LOCAWARE_CHECK(!entries_.empty());
  size_t victim = 0;
  if (config_.eviction == EvictionPolicy::kRandom) {
    // xorshift64* steps a private generator; cheap and reproducible.
    eviction_rng_state_ ^= eviction_rng_state_ >> 12;
    eviction_rng_state_ ^= eviction_rng_state_ << 25;
    eviction_rng_state_ ^= eviction_rng_state_ >> 27;
    const uint64_t r = eviction_rng_state_ * 0x2545F4914F6CDD1DULL;
    victim = static_cast<size_t>(r % entries_.size());
  } else {
    // LRU evicts the smallest use stamp. FIFO never re-stamps, so its
    // smallest stamp is the oldest insertion, the front.
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].last_use < entries_[victim].last_use) victim = i;
    }
  }
  Entry& e = entries_[victim];
  evicted->push_back(EvictedFile{e.file, std::move(e.keywords)});
  entries_.erase(entries_.begin() + victim);
  ++stats_.evictions;
}

}  // namespace locaware::cache
