// Pure structured search: every query resolves through the Chord
// keyword->provider DHT (src/dht/, driven by this protocol's DhtPlane), no
// unstructured forwarding and no response index. The contrast protocol for
// the popularity-skew ablation — O(log n) hops regardless of popularity, at
// the price of publish traffic and churn-window losses.
#pragma once

#include "core/dht_plane.h"
#include "core/protocol.h"

namespace locaware::core {

class DhtProtocol final : public Protocol {
 public:
  using Protocol::Protocol;

  ProtocolKind kind() const override { return ProtocolKind::kDht; }
  const char* name() const override { return "DHT"; }

  /// Routing state only: no response index.
  void InitNodeState(NodeState& node, uint64_t seed, common::Arena* arena) const override;
  /// Builds the ring and the initial routing tables.
  void OnSetupComplete(Engine& engine) override;

  /// No unstructured forwarding: queries never travel overlay links.
  PeerVec ForwardTargets(Engine& engine, PeerId node,
                         const overlay::QueryMessage& query, PeerId from) override;

  /// Every submitted query starts an iterative DHT lookup on its routing
  /// keyword.
  void OnQuerySubmitted(Engine& engine, const overlay::QueryMessage& query,
                        size_t fanout) override;

  /// Stabilization under churn, republish, record expiry.
  void OnMaintenanceTick(Engine& engine, PeerId node) override;
  void OnDeparture(Engine& engine, PeerId node) override;
  void OnRejoin(Engine& engine, PeerId node) override;

  /// Location-oblivious structured baseline.
  SelectionStrategy DefaultSelection() const override {
    return SelectionStrategy::kRandom;
  }

 private:
  DhtPlane dht_;
};

}  // namespace locaware::core
