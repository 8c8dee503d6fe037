// The unstructured P2P overlay: "each peer joins the network by establishing
// logical links to randomly chosen peers ... without knowledge of the
// underlying topology" (paper §3.1). Locality-obliviousness is deliberate —
// it is exactly the mismatch between overlay and underlay that Locaware's
// locIds compensate for.
//
// Generate builds the initial graph with both halves of every link. After
// that there is one mutation model: the owner half-link ops
// (GoOffline/GoOnline/AddHalfLink/RemoveHalfLink) touch only peer p's own
// row. The sharded engine's churn path drives them: each endpoint learns of
// link changes through LinkDrop/LinkProbe/LinkAccept messages and updates
// its own view when the message event executes on its shard. The two
// endpoint views of a link may therefore disagree while a notification is in
// flight — exactly the staleness a real overlay exhibits.
//
// Half-edges are epoch-stamped: each entry remembers the *remote* peer's
// session epoch at establishment, and a LinkDrop only removes edges from
// sessions at or before the epoch it names — a drop from a past session can
// never tear down a link formed after the peer rejoined.
//
// SetPartitionedOwnership(num_shards, owner_of) extends the engine's node()
// ownership assert to overlay state: with it enabled, any per-peer read or
// write from an event executing on a foreign shard CHECK-fails. The owner of
// a peer is placement-defined (the engine passes its ShardPlacement's owner
// map); an empty map means the modulo partition.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "common/types.h"

namespace locaware::overlay {

/// Overlay shape parameters.
struct OverlayConfig {
  size_t num_peers = 1000;
  /// Target average degree (paper: 3). Realized as an Erdős–Rényi G(n, m)
  /// graph with m = n·avg/2 edges plus bridges that join stray components,
  /// so the realized average can exceed the target slightly.
  double avg_degree = 3.0;
};

/// \brief Random graph of peers whose links change one half at a time.
///
/// Degree-3 graphs are sparse; adjacency is small vectors with linear scans,
/// which beats hash sets at these sizes.
class OverlayGraph {
 public:
  /// One peer's adjacency row. Inline 8 covers essentially every peer of a
  /// degree-3 overlay without touching the heap; high-degree outliers spill
  /// to the global heap.
  using NeighborList = SmallVector<PeerId, 8>;
  using EpochList = SmallVector<uint32_t, 8>;

  /// Generates a connected overlay. Fails with InvalidArgument when the
  /// config cannot make a connected graph (n = 0, degree too small).
  static Result<OverlayGraph> Generate(const OverlayConfig& config, Rng* rng);

  // The liveness/link tallies are atomics (shard-owned rows mutate
  // concurrently under the parallel engine), which forfeits the implicit
  // copy/move special members; these restore them.
  OverlayGraph(const OverlayGraph& other);
  OverlayGraph& operator=(const OverlayGraph& other);
  OverlayGraph(OverlayGraph&& other) noexcept;
  OverlayGraph& operator=(OverlayGraph&& other) noexcept;

  size_t num_peers() const { return adjacency_.size(); }
  /// Peers currently online. O(1): maintained incrementally by every
  /// liveness mutation (debug builds cross-check against a full scan).
  size_t num_alive() const;
  /// Half-edge count / 2. O(1): maintained incrementally by every link
  /// mutation (debug builds cross-check against a full scan). With in-flight
  /// link notifications the two endpoint views can briefly disagree, so this
  /// is exact only at quiescence.
  size_t num_links() const;
  double AverageDegree() const;

  bool IsAlive(PeerId p) const;
  const NeighborList& Neighbors(PeerId p) const;
  /// Session-epoch stamps parallel to Neighbors(p): entry i is the remote
  /// peer's epoch when the edge to Neighbors(p)[i] was established.
  const EpochList& LinkEpochs(PeerId p) const;
  size_t Degree(PeerId p) const;
  bool AreNeighbors(PeerId a, PeerId b) const;

  // --- owner-shard half-link mutation (message-routed churn) ---------------

  /// Extends the shard-ownership assert to overlay state: after this, every
  /// per-peer accessor CHECK-fails when called from an event executing on a
  /// shard other than p's owner — owner_of[p] when the map is non-empty
  /// (the engine passes ShardPlacement::owner_map()), else p % num_shards.
  /// No-op for num_shards <= 1.
  void SetPartitionedOwnership(uint32_t num_shards,
                               std::vector<uint32_t> owner_of = {});

  /// Takes `p` offline and clears only p's own half-edges (the remote halves
  /// dissolve when the peer's LinkDrop messages arrive). Returns the former
  /// neighbors so the caller can notify them.
  std::vector<PeerId> GoOffline(PeerId p);

  /// Brings `p` back online with no links and a fresh session epoch.
  void GoOnline(PeerId p);

  /// Adds nb to p's own adjacency, stamped with nb's session epoch as
  /// announced in the link handshake. Refreshes the stamp if the edge
  /// already exists (returns false then, and on self-loops).
  bool AddHalfLink(PeerId p, PeerId nb, uint32_t nb_epoch);

  /// Removes nb from p's own adjacency iff the stored stamp is <= max_epoch
  /// (a LinkDrop names the epoch of the session that ended; a newer link
  /// survives). Returns whether an edge was removed.
  bool RemoveHalfLink(PeerId p, PeerId nb, uint32_t max_epoch);

  /// Does p's own view contain nb?
  bool HasHalfLink(PeerId p, PeerId nb) const;

  /// p's session epoch: 0 for the initial session, +1 per rejoin.
  uint32_t session_epoch(PeerId p) const;

  /// True when every alive peer can reach every other alive peer.
  bool IsConnected() const;
  /// Fraction of alive peers in the largest connected component.
  double LargestComponentFraction() const;

 private:
  OverlayGraph() = default;

  /// Generate's builder, before any peer goes offline or ownership is
  /// partitioned: adds both adjacency halves of an undirected link, leaving
  /// the link-epoch rows to Generate (every stamp is 0). No-op (returns
  /// false) if it already exists or would self-loop.
  bool AddLink(PeerId a, PeerId b);

  /// CHECK that the executing shard owns p (partitioned mode only).
  void AssertOwner(PeerId p) const;

  std::vector<NeighborList> adjacency_;
  /// link_epoch_[p][i]: the session epoch of adjacency_[p][i] when the edge
  /// was established (parallel arrays, kept in sync by every mutator).
  std::vector<EpochList> link_epoch_;
  std::vector<uint32_t> session_epoch_;
  std::vector<char> alive_;
  uint32_t owner_shards_ = 1;
  /// Placement-defined owner shard per peer; empty = modulo partition.
  std::vector<uint32_t> owner_of_;
  /// Incremental mirrors of the full scans (every mutator updates them;
  /// num_alive/num_links assert agreement in debug builds). Counting
  /// half-edges keeps dangling halves consistent with the scan semantics.
  /// Relaxed atomics: owner-shard mutators bump them concurrently, readers
  /// are controller-phase reporting at quiescence.
  std::atomic<size_t> alive_count_{0};
  std::atomic<size_t> half_edge_count_{0};
};

}  // namespace locaware::overlay
