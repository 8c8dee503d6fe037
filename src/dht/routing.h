// Per-peer Chord routing state and the pure table/next-hop logic (PR 10).
//
// Everything here is node-local: a RoutingState is owned by exactly one peer
// and only mutated from that peer's shard, like every other NodeState member.
// The two free functions are deliberately engine-free so the unit tests can
// drive lookups against in-memory tables and check them against the ring's
// ground-truth successor:
//
//   * ComputeTables — (re)derive the route table (successor list, then
//     fingers) from the immutable Ring filtered by an online predicate.
//     Called at setup (all peers online), on every maintenance tick under
//     churn, and on rejoin — the PR 3 idiom of reading the churn timeline
//     as a bootstrap directory instead of mutating remote peers.
//   * NextHop — one step of the iterative find_successor: either "done, the
//     owner is X" or "ask Y next". The closest-preceding scan is a max over
//     ring distance across the contiguous route table, reading ring ids
//     cached at rebuild time: no hashing and no hash-table walk per hop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/flat_map.h"
#include "common/small_vector.h"
#include "common/types.h"
#include "dht/ring.h"
#include "sim/sim_time.h"

namespace locaware::dht {

/// `last_publish` sentinel: the peer has never published this session, so
/// the next maintenance tick publishes immediately.
inline constexpr sim::SimTime kNeverPublished = std::numeric_limits<sim::SimTime>::min();

/// One provider record held by the owner of a keyword's ring key.
struct StoredProvider {
  FileId file = kInvalidFile;
  PeerId provider = kInvalidPeer;
  LocId loc_id = 0;
  sim::SimTime expires_at = 0;
};

/// Per-keyword provider list, insertion-ordered (node-local event order, so
/// deterministic). Inline 4 covers the catalog's ~1 file/keyword shape.
using StoreList = SmallVector<StoredProvider, 4>;

/// An in-flight iterative lookup driven by its initiator.
struct LookupState {
  enum class Purpose : uint8_t {
    kQuery,  ///< resolving providers for a submitted query
    kStore,  ///< routing a publish to the key's owner
  };
  Purpose purpose = Purpose::kQuery;
  QueryId qid = 0;                  ///< meaningful iff purpose == kQuery
  KeywordId kw = kInvalidKeyword;   ///< the keyword being resolved
  FileId file = kInvalidFile;       ///< meaningful iff purpose == kStore
  RingId key = 0;                   ///< ring position of `kw`
  PeerId asked = kInvalidPeer;      ///< node the in-flight request went to
  /// True once the route resolved and the in-flight request is the final
  /// kGetProviders fetch (its reply carries records, not a next hop).
  bool fetching = false;
  uint32_t hops = 0;                ///< request messages sent so far
  sim::SimTime started_at = 0;
};

/// One known peer and its ring position, cached when the table is rebuilt.
struct RouteEntry {
  RingId id = 0;
  PeerId peer = kInvalidPeer;
};

/// \brief All DHT state owned by one peer.
struct RoutingState {
  /// Every peer this node can route to: the successor list (the next `dht.successors`
  /// online peers clockwise from self, nearest first), then each distinct finger peer
  /// successor(self + 2^i) beyond succ0 — never self, never a duplicate, and empty
  /// exactly when no other peer is online. `routes.front()` is succ0. With 4 successors
  /// and 24 fingers the table holds about log2(n) + 2 entries (12-17 at 4k peers, 13-18
  /// at 10k): inline 16 keeps all but a handful of a 4k ring's tables off the heap, and
  /// a table that outgrows it spills once and keeps the buffer across rebuilds.
  SmallVector<RouteEntry, 16> routes;
  /// The owner-side keyword -> provider-record store.
  FlatMap<KeywordId, StoreList> store;
  /// In-flight lookups this peer initiated, keyed by session id.
  FlatMap<uint64_t, LookupState> lookups;
  /// Node-local session counter; advances in node-local event order, so
  /// session ids are shard-count invariant (same rule as `link_round`).
  uint64_t next_session = 0;
  sim::SimTime last_publish = kNeverPublished;

  /// Session death: routing entries, in-flight lookups and the owned store
  /// all die with the session (Chord loses un-replicated records when their
  /// holder leaves; re-publish repopulates the new owner). The tables keep
  /// their buffers across `clear`.
  void ResetForDeparture() {
    routes.clear();
    store.clear();
    lookups.clear();
    last_publish = kNeverPublished;
  }
};

/// Rebuilds `rt`'s route table, successor list first, for `self` from the
/// immutable ring order, keeping only members satisfying `online`. Pure:
/// reads shared immutable data plus the predicate, writes only `rt`.
template <typename OnlinePred>
void ComputeTables(const Ring& ring, PeerId self, size_t num_successors,
                   size_t num_fingers, OnlinePred&& online, RoutingState* rt) {
  const size_t n = ring.size();
  const RingId self_id = RingIdOfPeer(self);
  rt->routes.clear();
  if (n > 1) {
    size_t i = ring.IndexOfFirstAtOrAfter(self_id + 1);
    // Until the fingers follow, the table holds only successors.
    for (size_t step = 0; step + 1 < n && rt->routes.size() < num_successors;
         ++step, i = (i + 1 == n) ? 0 : i + 1) {
      const PeerId c = ring.PeerAt(i);
      if (c == self) break;  // full circle: nobody else online
      if (online(c)) rt->routes.push_back(RouteEntry{ring.IdAt(i), c});
    }
  }
  if (rt->routes.empty()) return;  // alone on the ring: no routes needed
  // Fingers, farthest first. A target in (self, succ0] resolves to succ0
  // (every member strictly between self and succ0 is offline), and so does
  // every lower index, whose target is nearer still: stop there.
  const RingId succ0_id = rt->routes.front().id;
  const uint32_t lo = num_fingers >= 64 ? 0 : 64 - static_cast<uint32_t>(num_fingers);
  for (uint32_t i = 63;; --i) {
    const RingId target = FingerTarget(self_id, i);
    if (InInterval(target, self_id, succ0_id)) break;
    const PeerId f = ring.SuccessorOf(target, [&](PeerId c) {
      return c != self && online(c);
    });
    const bool known = std::any_of(rt->routes.begin(), rt->routes.end(),
                                   [f](const RouteEntry& e) { return e.peer == f; });
    if (!known) rt->routes.push_back(RouteEntry{RingIdOfPeer(f), f});
    if (i == lo) break;
  }
}

/// One routing decision of the iterative find_successor(key), taken at the
/// node owning `rt`.
struct HopDecision {
  bool done = false;         ///< true: `next` is the owner of `key`
  PeerId next = kInvalidPeer;  ///< owner (done) or next node to ask; kInvalidPeer
                               ///< with done=true means "self owns the key"
};

inline HopDecision NextHop(const RoutingState& rt, PeerId self, RingId key) {
  if (rt.routes.empty()) return {true, kInvalidPeer};  // alone: self owns all
  const RingId self_id = RingIdOfPeer(self);
  const RouteEntry& succ0 = rt.routes.front();
  if (InInterval(key, self_id, succ0.id)) return {true, succ0.peer};
  // Closest preceding node: the known peer that lands farthest clockwise
  // from self while still strictly preceding the key, i.e. whose distance
  // from self is below the key's. Every entry is at distance >= 1 (never
  // self), and key == self_id (distance 0) means the whole circle precedes
  // it, so the bound is the key's distance minus one, wrapping to the
  // maximum. Distinct peers have distinct ring ids, hence distinct
  // distances: the max has one winner whatever the table order.
  const RingId limit = RingDistance(self_id, key) - 1;
  PeerId best = kInvalidPeer;
  RingId best_dist = 0;
  for (const RouteEntry& e : rt.routes) {
    const RingId dist = RingDistance(self_id, e.id);
    if (dist <= limit && dist > best_dist) {
      best = e.peer;
      best_dist = dist;
    }
  }
  if (best != kInvalidPeer) return {false, best};
  // Inconsistent tables (repair lag): treat succ0 as the owner rather than
  // loop — the lookup terminates and the record, if misplaced, is healed by
  // the next republish.
  return {true, succ0.peer};
}

}  // namespace locaware::dht
