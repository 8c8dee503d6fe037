#include "net/landmark.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <unordered_map>

#include "common/check.h"

namespace locaware::net {

namespace {

constexpr uint32_t kFactorial[9] = {1, 1, 2, 6, 24, 120, 720, 5040, 40320};

/// Lehmer rank of a permutation of {0..k-1}, k <= 8, unchecked: digit i
/// counts the smaller elements to the right of position i.
uint32_t LehmerRank(const uint8_t* perm, size_t k) {
  uint32_t rank = 0;
  for (size_t i = 0; i < k; ++i) {
    uint32_t smaller = 0;
    for (size_t j = i + 1; j < k; ++j) {
      if (perm[j] < perm[i]) ++smaller;
    }
    rank += smaller * kFactorial[k - 1 - i];
  }
  return rank;
}

}  // namespace

uint32_t NumLocIds(size_t num_landmarks) {
  LOCAWARE_CHECK_LE(num_landmarks, 8u) << "locId space would overflow";
  return kFactorial[num_landmarks];
}

uint32_t LocIdCodec::PermutationRank(const std::vector<uint8_t>& perm) {
  const size_t k = perm.size();
  LOCAWARE_CHECK_LE(k, 8u);
  // Validate that `perm` is a permutation of {0..k-1}.
  uint32_t seen = 0;
  for (uint8_t v : perm) {
    LOCAWARE_CHECK_LT(v, k) << "element out of range";
    LOCAWARE_CHECK_EQ((seen >> v) & 1u, 0u) << "duplicate element";
    seen |= 1u << v;
  }
  return LehmerRank(perm.data(), k);
}

std::vector<uint8_t> LocIdCodec::RankToPermutation(uint32_t rank, size_t k) {
  LOCAWARE_CHECK_LE(k, 8u);
  LOCAWARE_CHECK_LT(rank, kFactorial[k]);
  std::vector<uint8_t> pool(k);
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<uint8_t> perm;
  perm.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    const uint32_t f = kFactorial[k - 1 - i];
    const uint32_t digit = rank / f;
    rank %= f;
    perm.push_back(pool[digit]);
    pool.erase(pool.begin() + digit);
  }
  return perm;
}

LocId ComputeLocId(const Underlay& underlay, PeerId peer) {
  const size_t k = underlay.num_landmarks();
  LOCAWARE_CHECK_GT(k, 0u) << "underlay has no landmarks";
  LOCAWARE_CHECK_LE(k, 8u);
  // Fixed-size scratch: one locId per peer at set-up must not cost two heap
  // vectors per peer. `order` is a permutation by construction, so it is
  // ranked directly, without PermutationRank's validation.
  std::array<uint8_t, 8> order;
  std::array<double, 8> rtt;
  for (size_t l = 0; l < k; ++l) {
    order[l] = static_cast<uint8_t>(l);
    rtt[l] = underlay.LandmarkRttMs(peer, l);
  }
  std::sort(order.begin(), order.begin() + k, [&](uint8_t a, uint8_t b) {
    if (rtt[a] != rtt[b]) return rtt[a] < rtt[b];
    return a < b;  // deterministic tie-break
  });
  return static_cast<LocId>(LehmerRank(order.data(), k));
}

std::vector<LocId> ComputeAllLocIds(const Underlay& underlay) {
  std::vector<LocId> out(underlay.num_peers());
  for (PeerId p = 0; p < out.size(); ++p) out[p] = ComputeLocId(underlay, p);
  return out;
}

LocIdStats AnalyzeLocIds(const std::vector<LocId>& loc_ids, size_t num_landmarks) {
  LocIdStats stats;
  stats.num_possible = NumLocIds(num_landmarks);
  std::unordered_map<LocId, uint32_t> population;
  for (LocId id : loc_ids) ++population[id];
  stats.num_inhabited = static_cast<uint32_t>(population.size());
  uint32_t total = 0;
  for (const auto& [id, count] : population) {
    total += count;
    stats.max_peers = std::max(stats.max_peers, count);
  }
  if (stats.num_inhabited > 0) {
    stats.mean_peers_per_inhabited =
        static_cast<double>(total) / static_cast<double>(stats.num_inhabited);
  }
  return stats;
}

}  // namespace locaware::net
