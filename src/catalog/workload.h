// Query workload generation (paper §5.1).
//
// Queries arrive as a Poisson process at 0.00083 queries/second/peer, target
// files by a Zipf popularity law, and carry 1..K keywords randomly chosen
// from the target filename. Workloads are generated up front (deterministic
// given a seed) and can be saved/loaded as text traces for replay.
#pragma once

#include <string>
#include <vector>

#include "catalog/file_catalog.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/sim_time.h"

namespace locaware::catalog {

/// One query submission.
struct QueryEvent {
  QueryId id = 0;
  PeerId requester = 0;
  FileId target = 0;                 ///< ground-truth file the query derives from
  std::vector<KeywordId> keywords;   ///< 1..K keywords of the target filename,
                                     ///< in sampled order (traces preserve it)
  sim::SimTime submit_time = 0;
};

/// Workload shape parameters.
struct WorkloadConfig {
  uint64_t num_queries = 5000;
  /// Zipf skew over file popularity ranks. The paper states "Zipf
  /// distribution" without the exponent; 1.0 matches classic Gnutella
  /// measurements (see EXPERIMENTS.md for sensitivity).
  double zipf_exponent = 1.0;
  /// Poisson arrival rate per peer (paper: 0.00083 q/s/peer).
  double query_rate_per_peer_s = 0.00083;
  /// Query keyword count X is uniform in [min, min(max, K)].
  size_t min_query_keywords = 1;
  size_t max_query_keywords = 3;
};

/// \brief Generated query stream plus the popularity mapping behind it.
class QueryWorkload {
 public:
  /// Empty workload; assign from Generate or LoadTrace before use.
  QueryWorkload() = default;

  /// Generates the full stream. Fails with InvalidArgument for empty
  /// networks/catalogs or a zero rate.
  static Result<QueryWorkload> Generate(const WorkloadConfig& config,
                                        const FileCatalog& catalog, size_t num_peers,
                                        Rng* rng);

  const std::vector<QueryEvent>& queries() const { return queries_; }

  /// File targeted by popularity rank r (0 = most popular).
  FileId FileAtRank(size_t rank) const;

  /// Popularity rank of a file, or kUnknownRank when the workload was loaded
  /// from a trace (the popularity mapping is not serialized).
  static constexpr uint32_t kUnknownRank = UINT32_MAX;
  uint32_t RankOfFile(FileId file) const;

  /// Serializes to a text trace (one line per query). Overwrites `path`.
  /// Traces carry keyword *strings* (they are an edge format), resolved
  /// through `catalog`.
  Status SaveTrace(const std::string& path, const FileCatalog& catalog) const;

  /// Reloads a trace written by SaveTrace, interning each keyword through
  /// `catalog`. Words the catalog has never seen are interned fresh (the
  /// query then legitimately matches nothing, as in the string era); a
  /// keyword repeated within one query is rejected (ambiguous under the
  /// canonical-set contract). The popularity mapping is not part of the
  /// trace; FileAtRank is unavailable on loaded workloads.
  static Result<QueryWorkload> LoadTrace(const std::string& path,
                                         FileCatalog* catalog);

  /// Serializes to the versioned binary trace format (BINARY_FORMAT.md):
  /// fixed-width id-keyed records plus an embedded keyword string table in
  /// first-occurrence order, so LoadBinary re-interns the exact ids a text
  /// round trip would. ~an order of magnitude faster to load than text.
  Status SaveBinary(const std::string& path, const FileCatalog& catalog) const;

  /// Loads a binary trace written by SaveBinary. Same interning semantics
  /// and same rejection rules as LoadTrace (nothing is minted on a rejected
  /// trace); corrupt/truncated/mismatched files return Status, never crash.
  static Result<QueryWorkload> LoadBinary(const std::string& path,
                                          FileCatalog* catalog);

  /// Sniffs the file's magic and dispatches to LoadBinary or LoadTrace, so
  /// every trace consumer accepts either format transparently.
  static Result<QueryWorkload> LoadAuto(const std::string& path, FileCatalog* catalog);

 private:
  std::vector<QueryEvent> queries_;
  std::vector<FileId> rank_to_file_;    // empty for loaded traces
  std::vector<uint32_t> file_to_rank_;  // inverse of rank_to_file_
};

/// Initial content placement: each peer shares `files_per_peer` distinct files
/// chosen uniformly from the catalog (paper: 3 of 3000). Returned flat, one
/// row per peer: peer p's files are elements [p·k, (p+1)·k) with
/// k = files_per_peer, in sampled order. Row p holds exactly the sample that
/// the p-th `rng->SampleIndices(catalog.num_files(), k)` call would return,
/// so the layout changes no draw.
std::vector<FileId> AssignInitialFiles(size_t num_peers, size_t files_per_peer,
                                       const FileCatalog& catalog, Rng* rng);

}  // namespace locaware::catalog
