// Peer → shard placement for the sharded parallel engine.
//
// Which shard owns a peer used to be the inline modulo `p % shards`. That is
// the worst possible input for the per-shard-pair lookahead matrix: modulo
// spreads every underlay location across every shard, so the pairwise bounds
// all collapse toward the scalar floor exactly when locality should buy deep
// windows. ShardPlacement promotes the mapping to a first-class, immutable
// object built once at Engine::Create:
//
//  * kModulo — bit-compatible with the historical inline modulo (the map is
//    implicit, shard_of computes it, no per-peer storage).
//  * kClustered — groups peers by underlay location (router subtree for the
//    geometric model) with a deterministic greedy bin-pack: location buckets
//    are weighted by expected per-peer load (the workload's requester
//    histogram), K spread-out seed locations are chosen k-center style
//    (max-min distance under the caller's location-distance oracle), and each
//    bucket joins its nearest seed's shard subject to a load cap of
//    C = ceil(total weight / K). Buckets heavier than C split per peer onto
//    the least-loaded shard, which bounds every shard's load by
//    2C + max peer weight. No RNG anywhere: ties break by lowest location /
//    shard / peer id, so the map is a pure function of its inputs.
//
// Placement is a pure scheduling knob: event keys and decision randomness are
// peer-keyed, so a run's metrics are byte-identical for every placement (and
// every shard/worker/stealing setting) — only the window schedule, and with
// it wall-clock, changes. The placement is immutable for the whole run and
// stable under churn: a peer that departs and rejoins keeps its shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "sim/shard.h"

namespace locaware::sim {

/// How peers map to shards. Serialized by core::config_io as
/// `scheduler.placement = modulo | clustered`.
enum class PlacementStrategy {
  kModulo,     ///< shard_of(p) = p % shards (the historical contract)
  kClustered,  ///< locality-clustered greedy bin-pack over location buckets
};

const char* PlacementStrategyName(PlacementStrategy s);

/// Distance oracle between two underlay locations (any consistent metric; the
/// engine passes Underlay::PairRttLowerBoundMs). May be null: the clustered
/// bin-pack then degenerates to a pure load-balanced pack, still valid.
using LocationDistanceFn = std::function<double(size_t, size_t)>;

/// \brief Immutable peer → shard map plus the per-shard location digests the
/// lookahead matrix is derived from. Build via Modulo() or Clustered().
class ShardPlacement {
 public:
  /// Trivial single-shard modulo placement (everything on shard 0).
  ShardPlacement() = default;

  /// The historical partition: shard_of(p) = p % num_shards. `peer_location`
  /// is each peer's underlay location (used only for the digests; may be
  /// empty when num_shards == 1, which needs no lookahead matrix).
  static ShardPlacement Modulo(uint32_t num_shards,
                               const std::vector<size_t>& peer_location);

  /// Locality-clustered placement (see file comment for the algorithm).
  /// `peer_weight[p]` is peer p's expected load share, > 0 (the engine uses
  /// 1 + the peer's query count); empty means uniform weights.
  static ShardPlacement Clustered(uint32_t num_shards,
                                  const std::vector<size_t>& peer_location,
                                  const std::vector<uint64_t>& peer_weight,
                                  const LocationDistanceFn& loc_distance);

  PlacementStrategy strategy() const { return strategy_; }
  uint32_t num_shards() const { return num_shards_; }
  size_t num_peers() const { return num_peers_; }

  /// The map. O(1); the modulo strategy stores no per-peer state.
  ShardId shard_of(PeerId p) const {
    return map_.empty() ? static_cast<ShardId>(p % num_shards_) : map_[p];
  }

  /// The full explicit owner map (empty for kModulo — callers treat empty as
  /// "compute p % num_shards"). OverlayGraph::SetPartitionedOwnership takes
  /// this shape directly.
  const std::vector<ShardId>& owner_map() const { return map_; }

  /// Sorted distinct underlay locations of shard `s`'s peers — the digest the
  /// per-shard-pair lookahead matrix is derived from (all empty when
  /// num_shards == 1, which needs no matrix; an empty digest also marks a
  /// peer-less shard, which gets the scalar floor bound).
  const std::vector<size_t>& ShardLocations(ShardId s) const;

  /// Peers owned by each shard (size num_shards). The engine's tick-ring
  /// reserves read this instead of re-scanning the map.
  const std::vector<size_t>& shard_peer_counts() const {
    return shard_peer_counts_;
  }

 private:
  /// Shared tail of both factories: per-shard peer counts + location digests.
  void BuildDigests(const std::vector<size_t>& peer_location);

  PlacementStrategy strategy_ = PlacementStrategy::kModulo;
  uint32_t num_shards_ = 1;
  size_t num_peers_ = 0;
  std::vector<ShardId> map_;  ///< empty for kModulo (implicit)
  std::vector<std::vector<size_t>> shard_locations_;
  std::vector<size_t> shard_peer_counts_;
};

}  // namespace locaware::sim
