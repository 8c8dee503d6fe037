#include "core/hybrid_protocol.h"

#include "core/engine.h"

namespace locaware::core {

PeerVec HybridProtocol::ForwardTargets(Engine& engine, PeerId node,
                                       const overlay::QueryMessage& query,
                                       PeerId from) {
  return BloomMatchedNeighbors(engine, node, query, from);
}

void HybridProtocol::InitNodeState(NodeState& node, uint64_t seed,
                                   common::Arena* arena) const {
  LocawareProtocol::InitNodeState(node, seed, arena);
  DhtPlane::InitNodeState(node, arena);
}

void HybridProtocol::OnSetupComplete(Engine& engine) { dht_.Build(engine); }

void HybridProtocol::OnQuerySubmitted(Engine& engine,
                                      const overlay::QueryMessage& query,
                                      size_t fanout) {
  // fanout > 0: some neighbor's filter claims the keywords — trust the cache
  // path. fanout == 0: local index missed (or we would not be here) and no
  // neighbor advertises the keywords — the unstructured half is out of
  // ideas, escalate.
  if (fanout == 0) dht_.StartQueryLookup(engine, query, /*count_as_escalation=*/true);
}

void HybridProtocol::OnMaintenanceTick(Engine& engine, PeerId node) {
  LocawareProtocol::OnMaintenanceTick(engine, node);
  dht_.OnMaintenanceTick(engine, node);
}

void HybridProtocol::OnDeparture(Engine& engine, PeerId node) {
  dht_.OnDeparture(engine, node);
}

void HybridProtocol::OnRejoin(Engine& engine, PeerId node) {
  dht_.OnRejoin(engine, node);
}

}  // namespace locaware::core
