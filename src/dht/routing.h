// Per-peer Chord routing state and the pure table/next-hop logic (PR 10).
//
// Everything here is node-local: a RoutingState is owned by exactly one peer
// and only mutated from that peer's shard, like every other NodeState member.
// The two free functions are deliberately engine-free so the unit tests can
// drive lookups against in-memory tables and check them against the ring's
// ground-truth successor:
//
//   * ComputeTables — (re)derive successor list + finger table from the
//     immutable Ring filtered by an online predicate. Called at setup (all
//     peers online), on every maintenance tick under churn, and on rejoin —
//     the PR 3 idiom of reading the churn timeline as a bootstrap directory
//     instead of mutating remote peers.
//   * NextHop — one step of the iterative find_successor: either "done, the
//     owner is X" or "ask Y next". The closest-preceding scan over the
//     finger FlatMap is an order-insensitive max over ring distance, which
//     is the one case raw table-order iteration is legal (see
//     common/flat_map.h); every other walk in the subsystem collects and
//     sorts first.
//
// Tables are arena-bound flat containers: DhtPlane binds each peer's
// FlatMaps/SmallVectors to its shard's arena at setup, so steady-state
// stabilization and store churn never touch the global heap.
#pragma once

#include <cstdint>
#include <limits>

#include "common/arena.h"
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

/// \brief All DHT state owned by one peer.
struct RoutingState {
  /// The next `dht.successors` online peers clockwise from self (self
  /// excluded), nearest first.
  SmallVector<PeerId, 8> successors;
  /// Finger table: finger index i -> successor(self + 2^i). Only fingers
  /// that resolve to a peer other than self (and other than plain succ0's
  /// trivial low indices' duplicates — duplicates are kept; they are cheap
  /// and the scan dedups by distance).
  FlatMap<uint32_t, PeerId> fingers;
  /// The owner-side keyword -> provider-record store.
  FlatMap<KeywordId, StoreList> store;
  /// In-flight lookups this peer initiated, keyed by session id.
  FlatMap<uint64_t, LookupState> lookups;
  /// Node-local session counter; advances in node-local event order, so
  /// session ids are shard-count invariant (same rule as `link_round`).
  uint64_t next_session = 0;
  sim::SimTime last_publish = kNeverPublished;

  void BindArena(common::Arena* arena) {
    successors.set_arena(arena);
    fingers.set_arena(arena);
    store.set_arena(arena);
    lookups.set_arena(arena);
  }

  /// Session death: routing entries, in-flight lookups and the owned store
  /// all die with the session (Chord loses un-replicated records when their
  /// holder leaves; re-publish repopulates the new owner). Arena bindings
  /// survive `clear`.
  void ResetForDeparture() {
    successors.clear();
    fingers.clear();
    store.clear();
    lookups.clear();
    last_publish = kNeverPublished;
  }
};

/// Rebuilds `rt`'s successor list and finger table for `self` from the
/// immutable ring order, keeping only members satisfying `online`. Pure:
/// reads shared immutable data plus the predicate, writes only `rt`.
template <typename OnlinePred>
void ComputeTables(const Ring& ring, PeerId self, size_t num_successors,
                   size_t num_fingers, OnlinePred&& online, RoutingState* rt) {
  const size_t n = ring.size();
  const RingId self_id = RingIdOfPeer(self);
  rt->successors.clear();
  if (n > 1) {
    size_t i = ring.IndexOfFirstAtOrAfter(self_id + 1);
    for (size_t step = 0; step + 1 < n && rt->successors.size() < num_successors;
         ++step, i = (i + 1 == n) ? 0 : i + 1) {
      const PeerId c = ring.PeerAt(i);
      if (c == self) break;  // full circle: nobody else online
      if (online(c)) rt->successors.push_back(c);
    }
  }
  rt->fingers.clear();
  if (rt->successors.empty()) return;  // alone on the ring: no routes needed
  const uint32_t lo = num_fingers >= 64 ? 0 : 64 - static_cast<uint32_t>(num_fingers);
  for (uint32_t i = 63;; --i) {
    const PeerId f = ring.SuccessorOf(FingerTarget(self_id, i), [&](PeerId c) {
      return c != self && online(c);
    });
    if (f != kInvalidPeer) rt->fingers.try_emplace(i, f);
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
  if (rt.successors.empty()) return {true, kInvalidPeer};  // alone: self owns all
  const RingId self_id = RingIdOfPeer(self);
  const PeerId succ0 = rt.successors.front();
  if (InInterval(key, self_id, RingIdOfPeer(succ0))) return {true, succ0};
  // Closest preceding node: the known peer that lands farthest clockwise
  // from self while still strictly preceding the key. Max over ring
  // distance — order-insensitive, so raw table iteration is legal here.
  PeerId best = kInvalidPeer;
  RingId best_dist = 0;
  const auto consider = [&](PeerId c) {
    const RingId cid = RingIdOfPeer(c);
    if (cid == key || !InInterval(cid, self_id, key)) return;
    const RingId dist = RingDistance(self_id, cid);
    if (best == kInvalidPeer || dist > best_dist) {
      best = c;
      best_dist = dist;
    }
  };
  for (const auto& slot : rt.fingers) consider(slot.second);
  for (PeerId s : rt.successors) consider(s);
  if (best != kInvalidPeer) return {false, best};
  // Inconsistent tables (repair lag): treat succ0 as the owner rather than
  // loop — the lookup terminates and the record, if misplaced, is healed by
  // the next republish.
  return {true, succ0};
}

}  // namespace locaware::dht
