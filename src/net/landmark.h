// Landmark-based location ids (locIds).
//
// Paper §4.1.1: each peer measures its RTT to k well-known landmarks; the
// ordering of landmarks by increasing RTT is a fingerprint of physical
// position, and each possible ordering gets a dense integer id in [0, k!).
// 4 landmarks → 24 locIds; the paper argues more landmarks (5 → 120 locIds)
// scatter 1000 peers too thinly (≈8 peers per locId) to find same-locality
// providers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/underlay.h"

namespace locaware::net {

/// Number of distinct locIds for k landmarks (k!). CHECK-fails for k > 8
/// (which would overflow the LocId width and make localities meaningless).
uint32_t NumLocIds(size_t num_landmarks);

/// \brief Dense encoding of permutations via the Lehmer code.
///
/// PermutationRank maps a permutation of {0..k-1} to [0, k!) bijectively;
/// RankToPermutation inverts it. Used to turn a landmark RTT ordering into a
/// compact locId that can ride in every cached index entry.
class LocIdCodec {
 public:
  /// Rank of a permutation of {0..k-1}. CHECK-fails if `perm` is not a
  /// permutation.
  static uint32_t PermutationRank(const std::vector<uint8_t>& perm);

  /// Inverse of PermutationRank.
  static std::vector<uint8_t> RankToPermutation(uint32_t rank, size_t k);
};

/// \brief Computes the locId of `peer`: sort landmarks by measured RTT
/// (ties broken by landmark index, deterministically) and rank the resulting
/// permutation.
LocId ComputeLocId(const Underlay& underlay, PeerId peer);

/// Computes locIds for all peers at once.
std::vector<LocId> ComputeAllLocIds(const Underlay& underlay);

/// \brief Population statistics of a locId assignment — how many distinct
/// locIds are inhabited and how many peers share each: the census behind the
/// paper's landmark-count discussion (§5.1) that bench/README.md quotes.
struct LocIdStats {
  uint32_t num_possible = 0;    ///< k!
  uint32_t num_inhabited = 0;   ///< locIds with >= 1 peer
  double mean_peers_per_inhabited = 0.0;
  uint32_t max_peers = 0;       ///< most crowded locId population
};

LocIdStats AnalyzeLocIds(const std::vector<LocId>& loc_ids, size_t num_landmarks);

}  // namespace locaware::net
