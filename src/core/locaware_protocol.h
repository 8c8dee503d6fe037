// Locaware (paper §4): location-aware index caching plus Bloom-filter-routed
// keyword search.
//
// Caching (§4.1): responses are cached at reverse-path peers with matching
// Gid (as in Dicas), but each index keeps *several* providers with their
// locIds, most recent first, and the original requester is appended as a new
// provider — the natural-replication leverage that makes download distance
// improve over time (Fig. 2). A peer answering from its index also records
// the new requester (Fig. 1's "(E, 1)" entry).
//
// Routing (§4.2): each peer summarizes the keywords of its cached filenames
// in a Bloom filter and gossips (delta-encoded) copies to neighbors. Queries
// forward to neighbors whose filter matches all keywords, then to neighbors
// with matching Gid, then to the highest-degree neighbor as a last resort.
#pragma once

#include <span>

#include "core/node_state.h"
#include "core/protocol.h"

namespace locaware::core {

class LocawareProtocol : public Protocol {
 public:
  using Protocol::Protocol;

  ProtocolKind kind() const override { return ProtocolKind::kLocaware; }

  /// The response index plus the counting keyword filter and its last
  /// advertised projection.
  void InitNodeState(NodeState& node, uint64_t seed) const override;
  /// Charges the set-up links' full-filter exchange without storing copies:
  /// every advertised filter is still empty, and an absent copy reads as one.
  void OnSetupComplete(Engine& engine) override;

  PeerVec ForwardTargets(Engine& engine, PeerId node,
                         const overlay::QueryMessage& query,
                         PeerId from) override;
  void ObserveResponse(Engine& engine, PeerId node,
                       const overlay::ResponseMessage& response) override;
  overlay::RecordVec AnswerFromIndex(
      Engine& engine, PeerId node, const overlay::QueryMessage& query) override;

  /// Expires stale index entries (keeping the Bloom filter in sync) and
  /// gossips a delta of the keyword filter to every neighbor when it changed.
  void OnMaintenanceTick(Engine& engine, PeerId node) override;
  /// The base predicate, and the counting filter's projection equals the
  /// advertised filter (no delta left to gossip).
  bool MaintenanceIdle(const NodeState& node) const override;
  /// Applies a neighbor's delta to our copy of its filter.
  void OnBloomUpdate(Engine& engine, PeerId node,
                     const overlay::BloomUpdateMessage& update) override;
  /// Message-routed link handshake: install the announced filter and Gid.
  void OnNeighborUp(Engine& engine, PeerId node,
                    const overlay::LinkAnnounce& peer) override;
  /// A neighbor left: drop its filter copy and invalidate index entries
  /// naming it, mirroring removals into the counting Bloom filter so the
  /// next maintenance tick gossips the delta.
  void OnPeerDeparted(Engine& engine, PeerId node, PeerId departed) override;

  SelectionStrategy DefaultSelection() const override {
    return SelectionStrategy::kLocIdThenRtt;
  }

 protected:
  /// Routing tier 1: neighbors of `node` (minus `from`) whose gossiped Bloom
  /// filter matches every query keyword. Shared with HybridProtocol, whose
  /// unstructured half is *only* this tier.
  PeerVec BloomMatchedNeighbors(Engine& engine, PeerId node,
                                const overlay::QueryMessage& query, PeerId from) const;

  /// Inserts one provider into `node`'s index, keeping the counting Bloom
  /// filter consistent with file insertions and evictions. `sorted_keywords`
  /// is the file's keyword-id set (ascending); Bloom updates use the
  /// catalog's precomputed per-keyword probe hashes.
  void AddToIndex(Engine& engine, NodeState& state, FileId file,
                  std::span<const KeywordId> sorted_keywords, PeerId provider,
                  LocId provider_loc);
};

}  // namespace locaware::core
