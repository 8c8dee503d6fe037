// Shared identifier types. Plain integer aliases (not strong types) because
// they cross module boundaries constantly; the alias names keep signatures
// readable.
//
// == The interned-symbol contract (the "id plane") ==
//
// Keywords and filenames exist as strings only at the edges of the system:
// trace I/O, reports, and the CLI. Everywhere on the data plane — catalog
// matching, response-index entries, wire messages, Bloom-filter maintenance,
// group hashing — they travel as integer ids:
//
//   * `KeywordId` indexes the keyword string table owned by
//     `catalog::FileCatalog` (built once at Generate/LoadTrace time). The
//     catalog also owns the derived per-keyword constants: FNV group hash,
//     128-bit Bloom probe hash, and wire byte length.
//   * `FileId` is the canonical file handle. The catalog maps it to the
//     filename string, its keyword-id set, and derived per-file constants
//     (canonical keyword-set hash, wire byte length).
//
// Invariants every id-plane component relies on:
//   * Keyword-id *sets* (query keywords, a file's keyword set) are kept
//     sorted ascending and deduplicated, so containment checks are linear
//     merges instead of string compares.
//   * Each file also carries a one-word keyword signature
//     (`KeywordSignature`, common/keyword_set.h) that both catalog factories
//     build and no format serializes. It is only a prefilter in front of the
//     merge: a file it passes still has to contain every query keyword.
//   * Wire-size accounting (`overlay::EstimateSizeBytes`) charges the byte
//     length of the *underlying strings* via `common::WireNames`, so traffic
//     metrics are identical to a string-carrying encoding.
//   * Converting id -> string or recomputing a hash from a string is only
//     legitimate at the edges; hot paths use the catalog's precomputed
//     tables.
#pragma once

#include <cstdint>

namespace locaware {

/// Index of a participant peer in [0, num_peers).
using PeerId = uint32_t;

/// Index of a router in the underlay graph.
using RouterId = uint32_t;

/// Index of a file in the catalog, in [0, num_files).
using FileId = uint32_t;

/// Index of an interned keyword in the catalog's string table, in
/// [0, num_keywords).
using KeywordId = uint32_t;

/// Location id derived from the landmark-RTT ordering (0 .. k!-1).
using LocId = uint16_t;

/// Dicas-style group id in [0, M).
using GroupId = uint16_t;

/// Globally unique query identifier (per submitted query).
using QueryId = uint64_t;

/// Sentinel for "no peer".
inline constexpr PeerId kInvalidPeer = UINT32_MAX;

/// Sentinel for "no file".
inline constexpr FileId kInvalidFile = UINT32_MAX;

/// Sentinel for "no keyword".
inline constexpr KeywordId kInvalidKeyword = UINT32_MAX;

}  // namespace locaware
