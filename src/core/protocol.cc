#include "core/protocol.h"

#include "common/check.h"
#include "core/dht_protocol.h"
#include "core/dicas_keys_protocol.h"
#include "core/dicas_protocol.h"
#include "core/engine.h"
#include "core/flooding_protocol.h"
#include "core/hybrid_protocol.h"
#include "core/locaware_protocol.h"

namespace locaware::core {

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kFlooding:
      return "Flooding";
    case ProtocolKind::kDicas:
      return "Dicas";
    case ProtocolKind::kDicasKeys:
      return "Dicas-Keys";
    case ProtocolKind::kLocaware:
      return "Locaware";
    case ProtocolKind::kDht:
      return "DHT";
    case ProtocolKind::kHybrid:
      return "Hybrid";
  }
  return "?";
}

std::span<const ProtocolKind> AllProtocolKinds() {
  static constexpr ProtocolKind kAll[] = {
      ProtocolKind::kFlooding, ProtocolKind::kDicas, ProtocolKind::kDicasKeys,
      ProtocolKind::kLocaware, ProtocolKind::kDht,   ProtocolKind::kHybrid,
  };
  return kAll;
}

const char* SelectionStrategyName(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kLocIdThenRtt:
      return "locid-then-rtt";
    case SelectionStrategy::kMinRtt:
      return "min-rtt";
    case SelectionStrategy::kRandom:
      return "random";
    case SelectionStrategy::kFirstResponder:
      return "first-responder";
  }
  return "?";
}

ProtocolParams MakeDefaultParams(ProtocolKind kind) {
  ProtocolParams params;
  switch (kind) {
    case ProtocolKind::kFlooding:
      // No caching: the RI config is unused (nodes carry no index).
      break;
    case ProtocolKind::kDicas:
    case ProtocolKind::kDicasKeys:
      // Dicas indexes hold a single provider per filename (§4.1.2: "the
      // response index in Locaware has for each file more possibilities of
      // providers than in Dicas and Dicas-keys").
      params.ri.max_providers_per_file = 1;
      break;
    case ProtocolKind::kLocaware:
      params.ri.max_providers_per_file = 8;
      break;
    case ProtocolKind::kDht:
      // Pure structured lookup: no response index at all.
      break;
    case ProtocolKind::kHybrid:
      // The unstructured half is Locaware's cache, same shape.
      params.ri.max_providers_per_file = 8;
      break;
  }
  return params;
}

void Protocol::InitNodeState(NodeState& node, uint64_t seed, common::Arena* arena) const {
  cache::ResponseIndexConfig ri_cfg = params_.ri;
  ri_cfg.eviction_seed = seed ^ (0x9e3779b97f4a7c15ULL * (node.id + 1));
  ri_cfg.arena = arena;
  node.ri = std::make_unique<cache::ResponseIndex>(ri_cfg);
}

void Protocol::OnSetupComplete(Engine& /*engine*/) {}

void Protocol::ObserveResponse(Engine& /*engine*/, PeerId /*node*/,
                               const overlay::ResponseMessage& /*response*/) {}

overlay::RecordVec Protocol::AnswerFromIndex(Engine& /*engine*/, PeerId /*node*/,
                                             const overlay::QueryMessage& /*query*/) {
  return {};
}

void Protocol::OnMaintenanceTick(Engine& engine, PeerId node) {
  NodeState& state = engine.node(node);
  if (state.ri != nullptr) {
    state.ri->ExpireStale(engine.Now());
  }
}

void Protocol::OnBloomUpdate(Engine& /*engine*/, PeerId /*node*/,
                             const overlay::BloomUpdateMessage& /*update*/) {}

void Protocol::OnLinkUp(Engine& /*engine*/, PeerId /*a*/, PeerId /*b*/) {}

void Protocol::OnNeighborUp(Engine& /*engine*/, PeerId /*node*/,
                            const overlay::LinkAnnounce& /*peer*/) {}

void Protocol::OnPeerDeparted(Engine& engine, PeerId node, PeerId departed) {
  NodeState& state = engine.node(node);
  if (state.ri != nullptr) state.ri->RemoveProvider(departed);
}

void Protocol::OnDeparture(Engine& /*engine*/, PeerId /*node*/) {}

void Protocol::OnRejoin(Engine& /*engine*/, PeerId /*node*/) {}

void Protocol::OnQuerySubmitted(Engine& /*engine*/,
                                const overlay::QueryMessage& /*query*/,
                                size_t /*fanout*/) {}

std::unique_ptr<Protocol> MakeProtocol(ProtocolKind kind, const ProtocolParams& params) {
  switch (kind) {
    case ProtocolKind::kFlooding:
      return std::make_unique<FloodingProtocol>(params);
    case ProtocolKind::kDicas:
      return std::make_unique<DicasProtocol>(params);
    case ProtocolKind::kDicasKeys:
      return std::make_unique<DicasKeysProtocol>(params);
    case ProtocolKind::kLocaware:
      return std::make_unique<LocawareProtocol>(params);
    case ProtocolKind::kDht:
      return std::make_unique<DhtProtocol>(params);
    case ProtocolKind::kHybrid:
      return std::make_unique<HybridProtocol>(params);
  }
  LOCAWARE_CHECK(false) << "unknown protocol kind";
  return nullptr;
}

}  // namespace locaware::core
