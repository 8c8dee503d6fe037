// Blind Gnutella flooding — the paper's traffic baseline. Every query copy
// goes to every neighbor (minus the sender), nothing is cached, and answers
// come only from file stores. Gnutella semantics: a node that answers keeps
// forwarding, so the flood always covers the TTL horizon.
#pragma once

#include "core/protocol.h"

namespace locaware::core {

class FloodingProtocol final : public Protocol {
 public:
  using Protocol::Protocol;

  ProtocolKind kind() const override { return ProtocolKind::kFlooding; }
  const char* name() const override { return "Flooding"; }

  /// Nothing to allocate: no index, no filters.
  void InitNodeState(NodeState& /*node*/, uint64_t /*seed*/,
                     common::Arena* /*arena*/) const override {}
  /// Nothing to maintain in a static run.
  bool NeedsMaintenanceTicks() const override { return false; }

  PeerVec ForwardTargets(Engine& engine, PeerId node,
                         const overlay::QueryMessage& query,
                         PeerId from) override;
  bool ForwardAfterHit() const override { return true; }
};

}  // namespace locaware::core
