#include "sim/shard_placement.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace locaware::sim {

const char* PlacementStrategyName(PlacementStrategy s) {
  switch (s) {
    case PlacementStrategy::kModulo:
      return "modulo";
    case PlacementStrategy::kClustered:
      return "clustered";
  }
  return "unknown";
}

void ShardPlacement::BuildDigests(const std::vector<size_t>& peer_location) {
  shard_peer_counts_.assign(num_shards_, 0);
  for (PeerId p = 0; p < num_peers_; ++p) ++shard_peer_counts_[shard_of(p)];

  shard_locations_.assign(num_shards_, {});
  if (num_shards_ <= 1) return;  // no matrix, no digests
  LOCAWARE_CHECK_EQ(peer_location.size(), num_peers_);
  // Mark (shard, location) in a K x L byte table, then read each shard's row
  // in location order: the sorted, deduplicated digest without pushing and
  // sorting one entry per peer.
  size_t num_locations = 0;
  for (size_t loc : peer_location) num_locations = std::max(num_locations, loc + 1);
  std::vector<uint8_t> present(num_shards_ * num_locations, 0);
  for (PeerId p = 0; p < num_peers_; ++p) {
    present[shard_of(p) * num_locations + peer_location[p]] = 1;
  }
  for (ShardId s = 0; s < num_shards_; ++s) {
    const uint8_t* row = present.data() + s * num_locations;
    std::vector<size_t>& locs = shard_locations_[s];
    for (size_t loc = 0; loc < num_locations; ++loc) {
      if (row[loc]) locs.push_back(loc);
    }
  }
}

ShardPlacement ShardPlacement::Modulo(uint32_t num_shards,
                                      const std::vector<size_t>& peer_location) {
  LOCAWARE_CHECK_GT(num_shards, 0u);
  ShardPlacement placement;
  placement.strategy_ = PlacementStrategy::kModulo;
  placement.num_shards_ = num_shards;
  placement.num_peers_ = peer_location.size();
  placement.BuildDigests(peer_location);
  return placement;
}

ShardPlacement ShardPlacement::Clustered(uint32_t num_shards,
                                         const std::vector<size_t>& peer_location,
                                         const std::vector<uint64_t>& peer_weight,
                                         const LocationDistanceFn& loc_distance) {
  LOCAWARE_CHECK_GT(num_shards, 0u);
  const size_t n = peer_location.size();
  if (!peer_weight.empty()) {
    LOCAWARE_CHECK_EQ(peer_weight.size(), n);
  }

  ShardPlacement placement;
  placement.strategy_ = PlacementStrategy::kClustered;
  placement.num_shards_ = num_shards;
  placement.num_peers_ = n;

  if (num_shards == 1 || n == 0) {
    // Nothing to partition: keep the implicit all-on-shard-0 map.
    placement.BuildDigests(peer_location);
    return placement;
  }

  const auto weight_of = [&](PeerId p) -> uint64_t {
    const uint64_t w = peer_weight.empty() ? 1 : peer_weight[p];
    LOCAWARE_CHECK_GT(w, 0u) << "peer weights must be positive";
    return w;
  };

  // Location buckets: each location's peers (ascending id) and total weight.
  // Locations no peer lives at (peer-less routers) simply yield empty buckets
  // that the pack skips.
  size_t num_locations = 0;
  for (size_t loc : peer_location) num_locations = std::max(num_locations, loc + 1);
  std::vector<std::vector<PeerId>> bucket_peers(num_locations);
  std::vector<uint64_t> bucket_weight(num_locations, 0);
  uint64_t total_weight = 0;
  for (PeerId p = 0; p < n; ++p) {
    bucket_peers[peer_location[p]].push_back(p);
    bucket_weight[peer_location[p]] += weight_of(p);
    total_weight += weight_of(p);
  }
  std::vector<size_t> occupied;  // ascending location ids with >= 1 peer
  for (size_t loc = 0; loc < num_locations; ++loc) {
    if (!bucket_peers[loc].empty()) occupied.push_back(loc);
  }

  // Seeds: k-center greedy over occupied locations. The first seed is the
  // heaviest bucket (lowest id on ties); each further seed maximizes its
  // minimum oracle distance to the seeds so far (heaviest, then lowest id on
  // ties). Spread-out seeds are what give each shard a spatially tight
  // location set — the property the lookahead matrix converts into deep
  // windows. Without an oracle all distances tie and seeding degenerates to
  // "heaviest buckets", leaving a pure load-balanced pack.
  const size_t num_seeds = std::min<size_t>(num_shards, occupied.size());
  std::vector<size_t> seed_loc;  // seed_loc[s]: shard s's anchor location
  seed_loc.reserve(num_seeds);
  std::vector<double> min_dist(num_locations,
                               std::numeric_limits<double>::infinity());
  for (size_t s = 0; s < num_seeds; ++s) {
    size_t best = SIZE_MAX;
    for (size_t loc : occupied) {
      if (std::find(seed_loc.begin(), seed_loc.end(), loc) != seed_loc.end()) {
        continue;
      }
      if (best == SIZE_MAX) {
        best = loc;
        continue;
      }
      if (s == 0) {
        // First seed: heaviest bucket.
        if (bucket_weight[loc] > bucket_weight[best]) best = loc;
      } else if (min_dist[loc] > min_dist[best] ||
                 (min_dist[loc] == min_dist[best] &&
                  bucket_weight[loc] > bucket_weight[best])) {
        best = loc;
      }
    }
    LOCAWARE_CHECK_NE(best, SIZE_MAX);
    seed_loc.push_back(best);
    if (loc_distance) {
      for (size_t loc : occupied) {
        min_dist[loc] = std::min(min_dist[loc], loc_distance(loc, best));
      }
    } else {
      for (size_t loc : occupied) min_dist[loc] = 0.0;
    }
  }

  // Greedy pack, heaviest bucket first (lowest location id on ties): each
  // bucket joins its nearest seed's shard among those still under the load
  // cap C = ceil(total / K); a bucket heavier than C splits per peer onto the
  // least-loaded shard. Both rules keep every shard's final load under
  // 2C + max peer weight (the balance bound the unit tests pin).
  const uint64_t cap =
      (total_weight + num_shards - 1) / num_shards;  // ceil(total / K)
  std::vector<size_t> order = occupied;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (bucket_weight[a] != bucket_weight[b]) {
      return bucket_weight[a] > bucket_weight[b];
    }
    return a < b;
  });

  std::vector<uint64_t> load(num_shards, 0);
  placement.map_.assign(n, 0);
  const auto least_loaded = [&]() -> ShardId {
    ShardId best = 0;
    for (ShardId s = 1; s < num_shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    return best;
  };

  for (size_t loc : order) {
    if (bucket_weight[loc] > cap) {
      // Oversized location: no single shard may take it whole. Spill per
      // peer, each to the currently least-loaded shard.
      for (PeerId p : bucket_peers[loc]) {
        const ShardId s = least_loaded();
        placement.map_[p] = s;
        load[s] += weight_of(p);
      }
      continue;
    }
    // Nearest seed whose shard is still under the cap; least-loaded when
    // every shard is at or over it (only possible near the very end of the
    // pack, since K * C >= total).
    ShardId chosen = kNoShard;
    double chosen_dist = std::numeric_limits<double>::infinity();
    for (ShardId s = 0; s < static_cast<ShardId>(seed_loc.size()); ++s) {
      if (load[s] >= cap) continue;
      const double d = loc_distance ? loc_distance(loc, seed_loc[s]) : 0.0;
      if (chosen == kNoShard || d < chosen_dist) {
        chosen = s;
        chosen_dist = d;
      }
    }
    if (chosen == kNoShard) {
      // Seeded shards are all full; overflow into any under-cap shard
      // (seedless shards exist when locations < shards), else least-loaded.
      for (ShardId s = 0; s < num_shards; ++s) {
        if (load[s] < cap) {
          chosen = s;
          break;
        }
      }
      if (chosen == kNoShard) chosen = least_loaded();
    }
    for (PeerId p : bucket_peers[loc]) placement.map_[p] = chosen;
    load[chosen] += bucket_weight[loc];
  }

  placement.BuildDigests(peer_location);
  return placement;
}

const std::vector<size_t>& ShardPlacement::ShardLocations(ShardId s) const {
  LOCAWARE_CHECK_LT(s, shard_locations_.size());
  return shard_locations_[s];
}

}  // namespace locaware::sim
