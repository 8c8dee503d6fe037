// The response index (RI) — the per-peer cache of file indexes at the heart
// of all caching protocols in the paper (§3.2, §4.1).
//
// An index maps a file to one or more *providers* (peer address + locId +
// freshness timestamp). Locaware keeps several providers per file,
// most-recent-first ("the most recent pf entries replace the oldest ones",
// §4.1.2); Dicas keeps a single provider. Capacity is bounded in files
// ("each peer can control its cache size in function of its storage
// capacity") with pluggable eviction, and entries can expire after a lifetime
// (Markatos' observation that cached results go stale quickly in Gnutella).
//
// The index lives entirely on the id plane (common/types.h): entries are
// keyed by FileId and carry sorted KeywordId sets — no strings. The paper
// bounds an index to a few dozen files, so it is one array of entries in
// insertion order, and keyword search scans it: each entry's one-word
// KeywordSignature rejects most non-matching files before the sorted merge,
// the same check the catalog runs on a peer's own files. The per-entry lists
// (keywords, providers) are SmallVectors with inline storage sized for the
// common case, so steady-state insert/evict churn touches the heap only for
// outlier entries.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/small_vector.h"
#include "common/types.h"
#include "sim/sim_time.h"

namespace locaware::cache {

/// One known provider of a cached file.
struct ProviderEntry {
  PeerId provider = kInvalidPeer;
  LocId loc_id = 0;
  sim::SimTime added_at = 0;
};

/// Inline-capacity lists sized for the steady state: the catalog generates 3
/// keywords per file, and the provider cap defaults to 8 (Locaware's
/// "several providers").
using KeywordVec = SmallVector<KeywordId, 4>;
using ProviderVec = SmallVector<ProviderEntry, 8>;

/// Which cached file to sacrifice when the index is full.
enum class EvictionPolicy {
  kLru,     ///< least-recently *used* (lookups and inserts refresh) — default
  kFifo,    ///< insertion order, ignores use
  kRandom,  ///< uniform random victim
};

const char* EvictionPolicyName(EvictionPolicy policy);

/// Capacity and lifetime knobs.
struct ResponseIndexConfig {
  /// Max distinct files cached (paper sizes Bloom filters for ~50).
  size_t max_filenames = 50;
  /// Max providers remembered per file (Locaware: several; Dicas: 1).
  size_t max_providers_per_file = 8;
  /// Provider entry lifetime; 0 disables expiry.
  sim::SimTime entry_ttl = 0;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// Seed for the kRandom eviction policy.
  uint64_t eviction_seed = 0x10caed5eedULL;
};

/// \brief Bounded, keyword-searchable map FileId → provider list.
///
/// Not thread-safe; under the sharded engine each peer's index is owned by
/// the peer's shard.
class ResponseIndex {
 public:
  explicit ResponseIndex(const ResponseIndexConfig& config);

  /// A file removed from the index, with the keyword ids it carried — the
  /// owner needs them to delete the keywords from derived structures
  /// (Locaware's counting Bloom filter).
  struct EvictedFile {
    FileId file = kInvalidFile;
    KeywordVec keywords;  ///< sorted ascending
  };

  /// Outcome of AddProvider, reported so the owner can maintain derived
  /// structures (Locaware updates its counting Bloom filter from these).
  struct UpdateOutcome {
    bool file_inserted = false;            ///< a new file entered the index
    bool provider_inserted = false;        ///< a (new or refreshed) provider landed
    std::vector<EvictedFile> evicted;      ///< files removed to make room
  };

  /// Inserts or refreshes `entry` as a provider of `file`, whose keyword-id
  /// set is `sorted_keywords` (ascending; only read when the file is new). A
  /// provider already present is refreshed (timestamp + locId updated) and
  /// moved to most-recent; when the provider list is full the oldest provider
  /// is dropped. May evict whole files per the eviction policy.
  UpdateOutcome AddProvider(FileId file, std::span<const KeywordId> sorted_keywords,
                            const ProviderEntry& entry, sim::SimTime now);

  /// A matching cached file with its live providers (stale ones filtered).
  struct Hit {
    FileId file = kInvalidFile;
    ProviderVec providers;  ///< most recent first
  };

  /// All cached files whose keyword set contains every query keyword
  /// (`sorted_query` ascending), in insertion order. Counts as a "use" for
  /// LRU, touching the hits in that order. Stale providers are filtered out
  /// of the result (but not erased — only AddProvider and ExpireStale remove
  /// state); files with no live provider do not match.
  std::vector<Hit> LookupByKeywords(std::span<const KeywordId> sorted_query,
                                    sim::SimTime now);

  /// Exact-file variant of LookupByKeywords.
  std::optional<Hit> LookupFile(FileId file, sim::SimTime now);

  /// Removes every provider older than the ttl (no-op when ttl = 0), and
  /// every file left without one; returns how many files were removed. When
  /// `removed` is non-null it is overwritten with those files, sorted by
  /// FileId; a null list (an owner with no derived structures) costs no
  /// report. Returns at once, without the sweep, while no provider can be
  /// stale yet (see oldest_added_at_).
  size_t ExpireStale(sim::SimTime now, std::vector<EvictedFile>* removed = nullptr);

  /// Invalidates every entry naming `provider` (a peer known to have left the
  /// network) and removes the files that lost their last provider; returns
  /// their count and, like ExpireStale, reports them sorted by FileId in
  /// `*removed` when it is non-null — the owner mirrors those into derived
  /// structures (Locaware's counting Bloom filter), exactly like an expiry
  /// sweep.
  size_t RemoveProvider(PeerId provider, std::vector<EvictedFile>* removed = nullptr);

  bool Contains(FileId file) const;
  size_t num_filenames() const { return entries_.size(); }
  size_t capacity() const { return config_.max_filenames; }
  /// Total provider entries across all files (the storage-cost metric for
  /// the Dicas-Keys duplication comparison).
  size_t TotalProviderCount() const;
  /// Cached files, sorted ascending.
  std::vector<FileId> Files() const;
  /// Sorted keyword ids stored for a cached file. CHECK-fails if absent.
  /// The reference is valid only until the next insert or eviction (the
  /// entries live in one array); refreshing a present file with AddProvider
  /// keeps it valid.
  const KeywordVec& KeywordsOf(FileId file) const;

  // --- lifetime counters (monotonic) ---
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;           ///< lookups returning >= 1 file
    uint64_t inserts = 0;        ///< provider insertions (incl. refreshes)
    uint64_t evictions = 0;      ///< files evicted for capacity
    uint64_t expirations = 0;    ///< provider entries dropped for age
    uint64_t invalidations = 0;  ///< provider entries dropped via RemoveProvider
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t signature = 0;  // KeywordSignature(keywords)
    uint64_t last_use = 0;   // use_clock_ stamp of the last insert or touch
    FileId file = kInvalidFile;
    KeywordVec keywords;    // sorted ascending
    ProviderVec providers;  // most recent first
  };

  /// The entry of `file`, or nullptr.
  Entry* Find(FileId file);
  const Entry* Find(FileId file) const;
  /// Stamps an entry most-recently-used (LRU only; FIFO/random ignore use).
  void Touch(Entry* entry);
  /// Evicts one victim per policy; appends it to *evicted.
  void EvictOne(std::vector<EvictedFile>* evicted);
  /// Drops stale providers of one entry; true if any provider survives.
  bool PruneStale(Entry* entry, sim::SimTime now);
  /// Non-mutating copy of an entry's live (non-stale) providers.
  ProviderVec LiveProviders(const Entry& entry, sim::SimTime now) const;
  /// Removes every entry for which `drop(entry)` is true, keeping the rest in
  /// order, and returns their count. A non-null `removed` receives the
  /// removed files sorted by FileId, so the report is a function of the
  /// index's contents, not of its insertion history.
  template <typename DropFn>
  size_t RemoveEntries(DropFn&& drop, std::vector<EvictedFile>* removed);

  ResponseIndexConfig config_;
  /// Insertion order: front = oldest insertion (the FIFO victim).
  std::vector<Entry> entries_;
  /// Source of Entry::last_use stamps; the LRU victim has the smallest.
  uint64_t use_clock_ = 0;
  uint64_t eviction_rng_state_;
  /// Lower bound on every provider's added_at (max while the index is
  /// empty): inserts lower it, a full ExpireStale sweep recomputes it
  /// exactly, and removals only raise the true minimum. While now minus
  /// this is within the ttl, no provider is stale and the sweep is skipped.
  sim::SimTime oldest_added_at_ = std::numeric_limits<sim::SimTime>::max();
  Stats stats_;
};

}  // namespace locaware::cache
