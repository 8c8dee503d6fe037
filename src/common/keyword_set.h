// Sorted keyword-id set operations — the id-plane replacement for the
// string-era ContainsAllKeywords (see common/types.h for the contract:
// keyword-id sets travel sorted ascending). Every keyword match in the
// engine is one KeywordSignature AND followed by ContainsAllIds, over the
// catalog's files and over the response index's entries alike. Parameters
// are spans so the catalog's std::vector storage and the response index's
// SmallVector storage share one implementation.
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
/// catalog and the response index reject most non-matching files on one AND
/// before the merge. A prefilter only: bits collide, so a pass still needs
/// ContainsAllIds.
inline uint64_t KeywordSignature(std::span<const KeywordId> kws) {
  uint64_t signature = 0;
  for (KeywordId kw : kws) signature |= uint64_t{1} << (Mix64(kw) >> 58);
  return signature;
}

}  // namespace locaware
