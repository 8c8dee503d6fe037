// The Chord DHT message plane: iterative lookups, publish-on-store and
// stabilization under churn, all as shard-safe messages through the engine's
// event queue — never direct cross-peer reads. DhtProtocol and
// HybridProtocol each own one plane and drive it from their hooks; the plane
// holds only the immutable ring, everything mutable is per-peer
// dht::RoutingState. Wire contract and invariants: src/dht/README.md.
#pragma once

#include "common/types.h"
#include "dht/ring.h"
#include "overlay/message.h"

namespace locaware::common {
class Arena;
}

namespace locaware::core {

class Engine;
struct NodeState;

class DhtPlane {
 public:
  /// Allocates `node`'s routing state, bound to its shard's `arena`.
  static void InitNodeState(NodeState& node, common::Arena* arena);

  /// Builds the ring and every peer's initial tables. The ring order is an
  /// immutable function of the peer count (the DHT's bootstrap directory,
  /// like the churn timeline); the tables are derived against the time-0
  /// online set — every peer, since churn transitions all start later.
  void Build(Engine& engine);

  /// Starts an iterative lookup resolving providers for `query`'s routing
  /// keyword, at the query's origin. `count_as_escalation` marks a hybrid
  /// escalation in the metrics.
  void StartQueryLookup(Engine& engine, const overlay::QueryMessage& query,
                        bool count_as_escalation);

  /// Per-tick work: stabilize under churn, republish, expire records.
  void OnMaintenanceTick(Engine& engine, PeerId p);
  /// Routing tables, in-flight lookups and the owned keyword store die with
  /// the session; republish after rejoin repopulates the ring.
  void OnDeparture(Engine& engine, PeerId p);
  /// Rebuilds routing tables immediately so the fresh session can route; its
  /// keyword store refills via the next tick's republish (last_publish was
  /// reset to the never-published sentinel at departure).
  void OnRejoin(Engine& engine, PeerId p) { Stabilize(engine, p); }

 private:
  /// Begins a store-purpose lookup routing (kw, file) to the key's owner.
  void StartStore(Engine& engine, PeerId publisher, KeywordId kw, FileId file);
  /// Sends one DhtLookup request for session `session` and charges it.
  void SendLookup(Engine& engine, PeerId initiator, uint64_t session, PeerId to,
                  overlay::DhtLookupMode mode);
  /// Sends a store for (kw, file) from `publisher` to the resolved `owner`.
  void SendStore(Engine& engine, PeerId publisher, PeerId owner, KeywordId kw,
                 FileId file);
  void DeliverLookup(Engine& engine, PeerId to, const overlay::DhtLookupMessage& msg);
  void DeliverResponse(Engine& engine, PeerId to, overlay::DhtResponseMessage msg);
  void DeliverStore(Engine& engine, PeerId to, const overlay::DhtStoreMessage& msg);
  /// Installs/refreshes a provider record in `owner`'s store.
  void StoreLocal(Engine& engine, PeerId owner, KeywordId kw, FileId file,
                  const overlay::ProviderInfo& provider);
  /// Offers the initiator's own owner-held providers for `kw` to the pending
  /// query (initiator-owns-key short circuit: no wire traffic, no response
  /// counted — FinalizeQuery classifies it kLocalIndex).
  void ServeFromOwnStore(Engine& engine, PeerId initiator, KeywordId kw, QueryId qid);
  /// Recomputes p's successor/finger tables against the current online set.
  void Stabilize(Engine& engine, PeerId p);
  /// Publishes every (keyword, file) of p's file store toward its owner.
  void Publish(Engine& engine, PeerId p);

  dht::Ring ring_;
};

}  // namespace locaware::core
