// Sorted keyword-id set operations — the id-plane replacement for the
// string-era ContainsAllKeywords (see common/types.h for the contract:
// keyword-id sets travel sorted ascending). Parameters are spans so the
// catalog's std::vector storage and the response index's SmallVector
// storage share one implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/hash.h"
#include "common/types.h"

namespace locaware {

/// True iff every id of `sorted_query` appears in `sorted_keywords` (both
/// ascending; duplicates in the query are tolerated). Linear merge over two
/// ascending runs; an empty query is vacuously contained.
inline bool ContainsAllIds(std::span<const KeywordId> sorted_keywords,
                           std::span<const KeywordId> sorted_query) {
  size_t k = 0;
  for (size_t q = 0; q < sorted_query.size(); ++q) {
    if (q > 0 && sorted_query[q] == sorted_query[q - 1]) continue;
    while (k < sorted_keywords.size() && sorted_keywords[k] < sorted_query[q]) ++k;
    if (k == sorted_keywords.size() || sorted_keywords[k] != sorted_query[q]) {
      return false;
    }
  }
  return true;
}

/// One-word keyword signature of an id set: the OR of `1 << (Mix64(kw) >> 58)`
/// over its keywords (order and duplicates do not matter). A set can contain
/// a query only if its signature holds every bit of the query's, so the
/// catalog rejects most non-matching files on one AND before the merge. A
/// prefilter only: bits collide, so a pass still needs ContainsAllIds.
inline uint64_t KeywordSignature(std::span<const KeywordId> kws) {
  uint64_t signature = 0;
  for (KeywordId kw : kws) signature |= uint64_t{1} << (Mix64(kw) >> 58);
  return signature;
}

/// The seed step of a posting-list intersection, shared by the catalog's
/// FindMatches and the response index's LookupByKeywords: the smallest
/// posting list among the (deduplicated) query keywords, or nullptr when any
/// keyword has no posting — in which case no entry can contain them all.
/// `lookup` maps a KeywordId to a pointer to its posting list (any
/// vector-like type), or nullptr when absent.
template <typename PostingLookupFn>
auto SmallestPosting(std::span<const KeywordId> sorted_query, PostingLookupFn&& lookup)
    -> decltype(lookup(KeywordId{})) {
  decltype(lookup(KeywordId{})) seed = nullptr;
  for (size_t q = 0; q < sorted_query.size(); ++q) {
    if (q > 0 && sorted_query[q] == sorted_query[q - 1]) continue;
    const auto* posting = lookup(sorted_query[q]);
    if (posting == nullptr || posting->empty()) return nullptr;
    if (seed == nullptr || posting->size() < seed->size()) seed = posting;
  }
  return seed;
}

}  // namespace locaware
