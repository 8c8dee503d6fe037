// Per-peer protocol state. One NodeState per participant, owned by the
// Engine; protocols allocate their members (Protocol::InitNodeState) and
// mutate them through their hooks.
#pragma once

#include <memory>

#include "bloom/bloom_filter.h"
#include "bloom/counting_bloom.h"
#include "cache/response_index.h"
#include "common/flat_map.h"
#include "common/small_vector.h"
#include "common/types.h"
#include "dht/routing.h"

namespace locaware::core {

/// All state a peer carries. The protocol-owned members (index, filters, DHT
/// state) are allocated by the protocols that use them and stay null
/// otherwise.
struct NodeState {
  PeerId id = kInvalidPeer;
  LocId loc_id = 0;   ///< landmark-ordering location id (§4.1.1)
  GroupId gid = 0;    ///< Dicas group id, uniform in [0, M) (§3.2)

  /// Files this peer shares: the initial 3 plus everything it downloads
  /// ("the requesting peer ... becomes a provider pf", §3.1). Inline for the
  /// initial placement; downloads spill into the owner shard's arena (the
  /// engine binds it at setup).
  SmallVector<FileId, 4> file_store;

  /// The response index RI_n. Allocated by the caching protocols; null for
  /// Flooding and DHT.
  std::unique_ptr<cache::ResponseIndex> ri;

  // --- Bloom routing (§4.2): the filters are allocated by Locaware/Hybrid ---
  /// Local deletable summary of RI keywords; its plain projection is what
  /// neighbors receive.
  std::unique_ptr<bloom::CountingBloomFilter> keyword_filter;
  /// Last projection actually gossiped; deltas are computed against it.
  std::unique_ptr<bloom::BloomFilter> advertised_filter;
  /// Our copy of each neighbor's advertised filter. Flat tables (one
  /// allocation, arena-bound at setup); iteration is table order, so
  /// order-sensitive walks must collect-and-sort (common/flat_map.h).
  FlatMap<PeerId, bloom::BloomFilter> neighbor_filters;
  /// Neighbors' group ids as learned at link establishment ("neighboring
  /// peers exchange their group Ids as well as their Bloom filters").
  FlatMap<PeerId, GroupId> neighbor_gids;

  // --- Chord DHT: allocated by the DHT plane's protocols (DHT, Hybrid) ---
  /// Successor list, finger table, owned store and in-flight lookups. Null
  /// under the four unstructured protocols.
  std::unique_ptr<dht::RoutingState> dht;

  // --- churn (message-routed link lifecycle) ---
  /// Neighbor degree as announced in the last link handshake. Under churn,
  /// remote adjacency is unreadable (shard-partitioned), so degree-ranked
  /// forwarding uses these possibly stale hints — the knowledge a real peer
  /// would actually have.
  FlatMap<PeerId, uint32_t> neighbor_degree;
  /// Count of link-probe rounds this peer has started; keys the candidate
  /// draw (DecisionRng) so every round has a unique, shard-count-invariant
  /// stream.
  uint64_t link_round = 0;

  // --- message plumbing ---
  /// Query GUIDs already seen (duplicate suppression).
  FlatSet<QueryId> seen_queries;
  /// Reverse-path routing: query GUID -> the neighbor it arrived from.
  FlatMap<QueryId, PeerId> reverse_path;

  /// Convenience: does this peer share a file (linear scan; stores are tiny).
  bool SharesFile(FileId f) const {
    for (FileId mine : file_store) {
      if (mine == f) return true;
    }
    return false;
  }
};

}  // namespace locaware::core
