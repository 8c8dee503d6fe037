#include "core/dht_protocol.h"

#include "core/engine.h"

namespace locaware::core {

PeerVec DhtProtocol::ForwardTargets(Engine& /*engine*/, PeerId /*node*/,
                                    const overlay::QueryMessage& /*query*/,
                                    PeerId /*from*/) {
  return {};
}

void DhtProtocol::InitNodeState(NodeState& node, uint64_t /*seed*/,
                                common::Arena* arena) const {
  DhtPlane::InitNodeState(node, arena);
}

void DhtProtocol::OnSetupComplete(Engine& engine) { dht_.Build(engine); }

void DhtProtocol::OnQuerySubmitted(Engine& engine, const overlay::QueryMessage& query,
                                   size_t /*fanout*/) {
  dht_.StartQueryLookup(engine, query, /*count_as_escalation=*/false);
}

void DhtProtocol::OnMaintenanceTick(Engine& engine, PeerId node) {
  dht_.OnMaintenanceTick(engine, node);
}

void DhtProtocol::OnDeparture(Engine& engine, PeerId node) {
  dht_.OnDeparture(engine, node);
}

void DhtProtocol::OnRejoin(Engine& engine, PeerId node) { dht_.OnRejoin(engine, node); }

}  // namespace locaware::core
