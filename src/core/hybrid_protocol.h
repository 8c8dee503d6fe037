// Structured/unstructured hybrid: Locaware's location-aware index caching
// serves the popular head of the query distribution; the Chord DHT
// (src/dht/, driven by this protocol's DhtPlane) serves the rare tail.
//
// The unstructured half is deliberately *narrower* than Locaware: queries
// only follow Bloom-matched links (tier 1) — the gid tier and the
// degree-ranked fallback walk are dropped. A query whose keywords no nearby
// cache advertises therefore leaves the origin with fanout 0, and that is
// exactly the escalation signal: the origin starts an iterative DHT lookup
// instead of burning TTL-bounded fallback hops. Popular keywords ride the
// cheap cache path (traffic <= Locaware by construction), rare ones resolve
// in O(log n) DHT hops (success >= flooding, which gives up at TTL range).
#pragma once

#include "core/dht_plane.h"
#include "core/locaware_protocol.h"

namespace locaware::core {

class HybridProtocol final : public LocawareProtocol {
 public:
  using LocawareProtocol::LocawareProtocol;

  ProtocolKind kind() const override { return ProtocolKind::kHybrid; }

  /// Locaware's index and filters plus the DHT routing state.
  void InitNodeState(NodeState& node, uint64_t seed) const override;
  /// Locaware's set-up filter exchange, then the ring and the initial
  /// routing tables.
  void OnSetupComplete(Engine& engine) override;

  /// Bloom tier only — no gid tier, no fallback walk (see file comment).
  PeerVec ForwardTargets(Engine& engine, PeerId node,
                         const overlay::QueryMessage& query, PeerId from) override;

  /// Escalates to the DHT when the unstructured forward went nowhere.
  void OnQuerySubmitted(Engine& engine, const overlay::QueryMessage& query,
                        size_t fanout) override;

  /// Locaware's tick (expiry, Bloom gossip), then the DHT's.
  void OnMaintenanceTick(Engine& engine, PeerId node) override;
  /// Never idle: stabilization and republish always have work.
  bool MaintenanceIdle(const NodeState& /*node*/) const override { return false; }
  void OnDeparture(Engine& engine, PeerId node) override;
  void OnRejoin(Engine& engine, PeerId node) override;

 private:
  DhtPlane dht_;
};

}  // namespace locaware::core
