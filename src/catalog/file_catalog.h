// The shared-file universe: filenames, their keyword decomposition, and the
// keyword signatures every query-matching scan checks first.
//
// Paper §5.1: 3000 files, each filename formed of 3 keywords drawn from a
// 9000-keyword pool. Matching rule (§3.1): a query is satisfied by any file
// whose filename contains *all* query keywords.
//
// The catalog is also the system's symbol authority (see common/types.h): it
// owns the only KeywordId/FileId <-> string tables, built once at Generate
// time, plus the derived per-symbol constants every hot path reuses instead
// of touching strings — FNV group hashes, 128-bit Bloom probe hashes, and
// wire byte lengths (the WireNames interface).
#pragma once

#include <cstddef>
#include <span>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.h"
#include "common/hash.h"
#include "common/keyword_set.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "common/wire_names.h"
#include "catalog/keyword_pool.h"

namespace locaware::catalog {

/// Shape of the synthetic catalog.
struct CatalogConfig {
  size_t num_files = 3000;
  size_t keyword_pool_size = 9000;
  size_t keywords_per_file = 3;
};

/// \brief Immutable catalog of files and their interned keywords.
class FileCatalog : public WireNames {
 public:
  /// Empty catalog; assign from Generate before use.
  FileCatalog() = default;

  // Move-only: the lookup maps hold string_views into the symbol tables, so
  // a copy would alias the source's storage. Moves keep the views valid (the
  // backing heap buffers transfer wholesale).
  FileCatalog(const FileCatalog&) = delete;
  FileCatalog& operator=(const FileCatalog&) = delete;
  FileCatalog(FileCatalog&&) = default;
  FileCatalog& operator=(FileCatalog&&) = default;

  /// Generates a catalog. Filenames are guaranteed unique (keyword sets are
  /// re-sampled on collision). Fails with InvalidArgument when the config is
  /// unsatisfiable (e.g. more keywords per file than the pool holds).
  static Result<FileCatalog> Generate(const CatalogConfig& config, Rng* rng);

  /// Serializes to the versioned binary catalog format (BINARY_FORMAT.md):
  /// the keyword string table in id order plus fixed-width per-file
  /// keyword-id rows. Filenames are not stored — they are the space-join of
  /// the keywords by construction (Internal error if one is not).
  Status SaveBinary(const std::string& path) const;

  /// Loads a catalog written by SaveBinary, rebuilding every derived
  /// constant (FNV/Bloom hashes, sorted sets, set hashes, signatures,
  /// lookup maps) exactly as Generate would. Corrupt/truncated/version-mismatched
  /// files return Status, never crash.
  static Result<FileCatalog> LoadBinary(const std::string& path);

  size_t num_files() const { return files_.size(); }
  size_t keywords_per_file() const { return keywords_per_file_; }
  size_t num_keywords() const { return keyword_table_.size(); }

  // --- keyword symbol table -------------------------------------------------

  /// String form of an interned keyword.
  const std::string& keyword(KeywordId kw) const;

  /// Id of a keyword string, or kInvalidKeyword when the word is unknown.
  KeywordId LookupKeyword(std::string_view word) const;

  /// Precomputed FNV-1a of the keyword string (Dicas-Keys group hashing).
  uint64_t KeywordFnv(KeywordId kw) const;

  /// Precomputed 128-bit Murmur3 of the keyword string — the Bloom-filter
  /// probe hash Locaware inserts/checks without re-hashing strings. By value
  /// (16 bytes): a reference into the backing vector could dangle across a
  /// later InternKeyword reallocation.
  KeyHash128 KeywordBloomHash(KeywordId kw) const;

  // --- file symbol table ----------------------------------------------------

  /// Full filename, e.g. "runebo katima zuvalo".
  const std::string& filename(FileId f) const;

  /// The file's keyword ids in filename order.
  const std::vector<KeywordId>& keywords(FileId f) const;

  /// The file's keyword ids sorted ascending — the form every id-plane
  /// containment check consumes.
  const std::vector<KeywordId>& sorted_keywords(FileId f) const;

  /// Precomputed canonical keyword-set hash of the file: FNV-1a over the
  /// lexicographically sorted keywords joined by ' ' (identical to the
  /// string-era GroupOfFilename preimage). Group of the file = this mod M.
  uint64_t FileSetFnv(FileId f) const;

  /// KeywordSignature of the file's keyword set, built by both factories
  /// beside the file table and never serialized.
  uint64_t FileSignature(FileId f) const;

  /// True iff `f`'s keyword set contains every id of `sorted_query` (ids
  /// sorted ascending; duplicates tolerated). Validates the sort order.
  bool Matches(FileId f, std::span<const KeywordId> sorted_query) const;
  /// Braced-list convenience (C++20 spans take no initializer_list).
  bool Matches(FileId f, std::initializer_list<KeywordId> sorted_query) const {
    return Matches(f, std::span<const KeywordId>(sorted_query.begin(),
                                                 sorted_query.size()));
  }

  /// The match every hot loop runs: Matches without the is_sorted
  /// validation, for loops that check one query against many files and
  /// validated it once at entry. `query_signature` must be
  /// KeywordSignature(sorted_query), computed once per query, not per file:
  /// a file whose signature lacks one of its bits is rejected without
  /// touching the file's keyword vector.
  bool MatchesSorted(FileId f, std::span<const KeywordId> sorted_query,
                     uint64_t query_signature) const;

  /// FileId of an exact filename, or kInvalidFile when absent.
  static constexpr FileId kInvalidFile = locaware::kInvalidFile;
  FileId LookupFilename(const std::string& filename) const;

  // --- edge helpers (strings <-> ids; trace I/O, tests, reports) -----------

  /// Interns one keyword string, minting a fresh id when the word is new
  /// (how trace loading admits queries for words no generated filename
  /// carries — they intern, then legitimately never match). Minted keywords
  /// get the same derived constants (FNV, Bloom hash, wire bytes) as
  /// generated ones; existing ids are never invalidated.
  KeywordId InternKeyword(std::string_view word);

  /// Interns a query's keyword strings: resolves each word, sorts ascending
  /// and deduplicates. Fails with InvalidArgument on an unknown word.
  Result<std::vector<KeywordId>> InternQueryKeywords(
      const std::vector<std::string>& words) const;

  /// Canonical keyword-set hash of an arbitrary id set: FNV-1a over the
  /// lexicographically sorted keyword strings joined by ' '. Equals
  /// FileSetFnv(f) when `kws` is f's full keyword set.
  uint64_t CanonicalSetFnv(std::span<const KeywordId> kws) const;

  /// Joins ids back into a display string ("kw1 kw2"), for reports/traces.
  std::string KeywordsToString(const std::vector<KeywordId>& kws) const;

  // --- WireNames ------------------------------------------------------------

  size_t KeywordWireBytes(KeywordId kw) const override;
  size_t FilenameWireBytes(FileId f) const override;

 private:
  struct FileEntry {
    std::string filename;
    std::vector<KeywordId> keywords;         // filename order
    std::vector<KeywordId> sorted_keywords;  // ascending ids
    uint64_t set_fnv = 0;                    // canonical keyword-set hash
  };

  size_t keywords_per_file_ = 0;
  /// KeywordId -> word. A deque, not a vector: InternKeyword appends after
  /// construction, and deque growth never relocates existing strings, so the
  /// string_views keyed into keyword_ids_ stay valid.
  std::deque<std::string> keyword_table_;
  std::vector<uint64_t> keyword_fnv_;        // KeywordId -> FNV-1a(word)
  std::vector<KeyHash128> keyword_bloom_;    // KeywordId -> Murmur3(word)
  /// Flat interning tables (single allocation each; heterogeneous lookup, so
  /// callers probe with whatever string type they hold). Pre-sized from the
  /// generation config or the binary header's counts, so loading never
  /// rehashes. The views key into keyword_table_ / files_ storage.
  FlatMap<std::string_view, KeywordId> keyword_ids_;  // word -> id
  std::vector<FileEntry> files_;
  /// FileId -> KeywordSignature(keywords), dense so the prefilter reads 8
  /// bytes per file instead of chasing the entry and its keyword vector.
  std::vector<uint64_t> signatures_;
  FlatMap<std::string_view, FileId> filename_index_;
};

}  // namespace locaware::catalog
