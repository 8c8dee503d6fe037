// The simulation engine: wires underlay, overlay, catalog, workload, nodes
// and one protocol into the discrete-event simulator, and implements the
// message plumbing every protocol shares — TTL-bounded forwarding, GUID
// duplicate suppression, reverse-path response routing (paper §3.1), query
// finalization with provider selection, churn, and periodic maintenance.
//
// Sharded execution: peers are partitioned across config.scheduler.shards
// shards by a placement-defined partition (sim::ShardPlacement — modulo or
// locality-clustered, built once at Create), each owning its peers' node
// state, pending queries, per-query visit tables, and a private
// MetricsCollector (merged at Run() exit). All cross-peer interaction
// travels as events through the ShardedSimulator's conservative windows,
// bounded per shard pair by a lookahead matrix the engine mins from the
// underlay's locality structure (each shard's peer locations digested
// against every other's — far-apart shards run deep windows), and all
// event-time randomness is derived from stable identities (DecisionRng), so
// the run's metrics are identical for every shard count, worker count and
// placement strategy — the whole scheduler block is purely a wall-clock knob.
//
// Churn composes with sharding: the per-peer on/off schedule is a precomputed
// immutable ChurnTimeline (stable per-(peer, cycle) streams), departures and
// rejoins execute as owner-shard events, and all overlay rewiring travels as
// LinkDrop/LinkProbe/LinkAccept messages so each endpoint mutates only its
// own (epoch-stamped) half of a link. The node() ownership assert extends to
// overlay state via OverlayGraph::SetPartitionedOwnership.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/file_catalog.h"
#include "catalog/workload.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "core/experiment_config.h"
#include "core/node_state.h"
#include "core/protocol.h"
#include "metrics/metrics.h"
#include "net/underlay.h"
#include "overlay/churn.h"
#include "overlay/message.h"
#include "overlay/overlay_graph.h"
#include "sim/shard_placement.h"
#include "sim/sharded_simulator.h"

namespace locaware::core {

/// \brief One experiment instance. Create → Run → read metrics.
///
/// Engine is also the service interface protocols program against: node
/// state, topology, latency, RNG streams and traffic accounting.
class Engine {
 public:
  /// Builds every subsystem deterministically from config.seed. Fails on
  /// values the run cannot honour (no peers, shards outside [1, num_peers],
  /// an empty Bloom shape, a zero maintenance interval, finger table or
  /// index capacity) or when a subsystem rejects its configuration (for
  /// shards > 1, an underlay that cannot bound its minimum link latency).
  static Result<std::unique_ptr<Engine>> Create(const ExperimentConfig& config);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Schedules the full workload and runs the simulation until every query
  /// has been finalized (last submission + query deadline + response slack).
  void Run();

  // --- services for protocols, benches and tests ---
  size_t num_peers() const { return nodes_.size(); }
  /// Mutable node state. During a multi-shard run this asserts the calling
  /// shard owns `p`: protocols must only mutate the node an event executes
  /// at, and reach remote peers' immutable facts via gid_of/loc_of.
  NodeState& node(PeerId p);
  const NodeState& node(PeerId p) const;
  LocId loc_of(PeerId p) const;
  /// Group id of `p`. Immutable after Setup, safe from any shard.
  GroupId gid_of(PeerId p) const;

  uint32_t num_shards() const { return num_shards_; }
  /// The peer → shard map. Delegates to the run's immutable ShardPlacement
  /// (built once at Create from config.scheduler.placement).
  sim::ShardId shard_of(PeerId p) const { return placement_.shard_of(p); }

  /// The run's immutable placement: the owner map, per-shard peer counts,
  /// and the per-shard location digests the lookahead matrix reads.
  const sim::ShardPlacement& placement() const { return placement_; }

  const net::Underlay& underlay() const { return *underlay_; }
  overlay::OverlayGraph& graph() { return *graph_; }
  const overlay::OverlayGraph& graph() const { return *graph_; }
  const catalog::FileCatalog& catalog() const { return catalog_; }
  const catalog::QueryWorkload& workload() const { return workload_; }
  sim::ShardedSimulator& simulator() { return *sim_; }
  /// Merged run-level metrics; complete once Run() has returned.
  metrics::MetricsCollector& metrics() { return metrics_; }
  const metrics::MetricsCollector& metrics() const { return metrics_; }
  Protocol& protocol() { return *protocol_; }
  const ExperimentConfig& config() const { return config_; }
  const ProtocolParams& params() const { return config_.params; }

  /// Current simulation time (the executing shard's clock inside an event).
  sim::SimTime Now() const { return sim_->Now(); }

  // Randomness domains for DecisionRng.
  static constexpr uint64_t kDecisionFallback = 1;   ///< routed-protocol fallback picks
  static constexpr uint64_t kDecisionSelection = 2;  ///< provider selection
  static constexpr uint64_t kDecisionChurnLink = 3;  ///< link-probe candidate draws

  /// Order-independent event-time randomness: a fresh stream derived from
  /// (seed, domain, a, b). Unlike a shared sequential stream, the draw does
  /// not depend on global event execution order, which is what keeps results
  /// byte-identical across shard counts. Key decisions by stable identities
  /// (query id, peer id), never by "how many draws happened before me".
  Rng DecisionRng(uint64_t domain, uint64_t a, uint64_t b = 0) const;

  /// Queries currently awaiting their deadline (0 after Run()).
  size_t pending_query_count() const;
  /// Per-shard query visit tables still addressable by in-flight messages
  /// (0 after Run(): every query was cleaned up everywhere).
  size_t tracked_query_count() const;

  /// One-way overlay-link delay between two peers (RTT/2).
  sim::SimTime OneWayDelay(PeerId a, PeerId b) const;

  /// Sends a Bloom delta from `from` to neighbor `to`: schedules delivery and
  /// charges the maintenance-traffic accounts.
  void SendBloomUpdate(PeerId from, PeerId to, overlay::BloomUpdateMessage update);

  /// `neighbor`'s degree as far as `self` may know it. Without churn the
  /// overlay is immutable and this is the true degree; under churn, remote
  /// adjacency is shard-partitioned, so it is the hint the last link
  /// handshake announced (0 if none survives). Deterministic either way.
  size_t NeighborDegree(PeerId self, PeerId neighbor);

  /// Marks `p`'s maintenance busy: its next tick runs the protocol's hook.
  /// Every path that writes a new entry into `p`'s response index calls this
  /// (the wake rule, Protocol::MaintenanceIdle). Runs on `p`'s shard; writes
  /// the quiet byte only when it flips.
  void WakeMaintenance(PeerId p);

  /// Whether `p`'s quiet byte is set: its ticks skip the protocol's hook,
  /// which would provably change nothing (Protocol::MaintenanceIdle).
  bool maintenance_quiet(PeerId p) const { return maintenance_quiet_[p] != 0; }

  /// The immutable per-peer on/off schedule (empty unless churn is enabled).
  const overlay::ChurnTimeline& churn_timeline() const { return churn_timeline_; }

  // --- message plane for protocol components (the DHT plane) ---

  /// Sends `deliver` from `from` to `to`: it executes on `to`'s shard after
  /// the one-way link delay, keyed by creator `from`. Must run inside an
  /// event executing at `from`'s shard.
  void Send(PeerId from, PeerId to, sim::EventFn&& deliver);

  /// The metrics account a message charges to its query.
  enum class Traffic { kQuery, kResponse };
  /// Charges `count` messages of `bytes` each to `qid`'s metrics slot in
  /// `at`'s shard. No-op once that shard cleaned the query up, so
  /// post-deadline stragglers charge nothing.
  void ChargeQueryTraffic(PeerId at, QueryId qid, Traffic traffic, size_t bytes,
                          size_t count = 1);

  /// Offers `records` (answered by `responder`) to `origin`'s pending query
  /// `qid`, keeping those whose file matches every query keyword. `hops` > 0
  /// means they crossed the wire in that many hops: a match counts as a
  /// response. `hops` == 0 means they were served locally. No-op once the
  /// query was finalized.
  void OfferRecords(PeerId origin, QueryId qid, PeerId responder,
                    overlay::RecordVec records, uint32_t hops);

  /// The metrics collector of `node`'s shard (the executing one inside an
  /// event at `node`).
  metrics::MetricsCollector& CollectorAt(PeerId node) {
    return shards_[shard_of(node)].metrics;
  }

 private:
  explicit Engine(const ExperimentConfig& config);

  /// Responses a query collects while in flight, finalized at the deadline.
  struct PendingQuery {
    size_t slot = 0;
    PeerId requester = kInvalidPeer;
    LocId requester_loc = 0;
    overlay::KeywordVec keywords;  ///< sorted ascending
    struct Offer {
      overlay::ResponseRecord record;
      PeerId responder = kInvalidPeer;
    };
    std::vector<Offer> offers;
  };

  /// How a query first reached a peer: the neighbor it came from (none at
  /// the origin) and the peer's session then. A hop stamped with an ended
  /// session reads as absent, so departures clear nothing.
  struct Hop {
    PeerId upstream = kInvalidPeer;
    uint32_t session_epoch = 0;
  };

  /// One query's state in one shard: its metrics slot and, for each of the
  /// shard's peers the query reached, the hop that brought it — GUID
  /// duplicate suppression and the reverse path (§3.1) in one table.
  struct QueryTrack {
    size_t slot = SIZE_MAX;  ///< SIZE_MAX: a straggler after cleanup
    FlatMap<PeerId, Hop> visits;
  };

  /// Everything one shard owns besides its peers' NodeStates. Only events
  /// executing on the owning shard touch an instance, so the hot path needs
  /// no locks; the metrics collectors are merged after the run.
  struct ShardState {
    /// Flat tables; only find/insert/erase reach them (the visit tables
    /// too), never iteration. A track is registered per query at Run() and
    /// erased by its cleanup event.
    FlatMap<QueryId, PendingQuery> pending;
    FlatMap<QueryId, QueryTrack> tracks;
    metrics::MetricsCollector metrics;
  };

  Status Setup();

  /// Digests the shard -> location assignment and mins the underlay's
  /// pairwise RTT lower bounds over each location cross product: entry
  /// [src * K + dst] is the one-way bound for events src's peers create for
  /// dst's peers, clamped to [scalar lookahead, query_deadline] (the deadline
  /// cap keeps cross-shard cleanup events schedulable; any clamp-down is
  /// still a valid conservative bound). Each occupied location pair's bound
  /// is asked for once and folded per destination shard, so the cost is
  /// O(L^2 + L * sum over d of |S_d|) for L locations and location sets S_d,
  /// not O(K^2 * L^2); the matrix is the same, min being exact.
  std::vector<sim::SimTime> BuildLookaheadMatrix(sim::SimTime scalar_lookahead) const;

  /// Event source id of peer `p` (source 0 is the pre-run controller).
  sim::SourceId SourceOf(PeerId p) const { return static_cast<sim::SourceId>(p) + 1; }

  /// Schedules `fn` at Now() + delay on dst's shard, keyed by creator `src`.
  /// Must run inside an event executing at a peer of src's shard.
  void ScheduleFromNode(PeerId src, PeerId dst, sim::SimTime delay, sim::EventFn&& fn);

  // Query lifecycle. Each forwarded copy of a query is its own message,
  // carried by value in its delivery event. Each hop is recorded in the
  // receiving shard's QueryTrack.
  void SubmitQuery(const catalog::QueryEvent& ev);
  void DeliverQuery(PeerId to, PeerId from, const overlay::QueryMessage& msg);
  void DeliverResponse(PeerId to, overlay::ResponseMessage msg);
  /// Returns the number of neighbors the query was forwarded to.
  size_t ForwardQuery(PeerId node, PeerId from, const overlay::QueryMessage& msg);
  void SendResponse(PeerId responder, PeerId next_hop,
                    overlay::ResponseMessage msg);
  void FinalizeQuery(PeerId origin, QueryId qid);
  /// Records that `qid` reached `p` from `upstream`; false for a duplicate in
  /// p's current session. After cleanup, a copy opens a fresh slot-less track.
  bool Visit(PeerId p, QueryId qid, PeerId upstream);
  /// Erases one shard's track for `qid`. The full cleanup is one such event
  /// per shard, scheduled by the origin at finalize + deadline.
  void CleanupShard(sim::ShardId shard, QueryId qid);
  /// Schedules CleanupShard on every shard at Now() + query deadline.
  void ScheduleCleanup(PeerId origin, QueryId qid);

  /// Records a file-store answer's records for `node` against `query`
  /// (empty when nothing matches).
  overlay::RecordVec AnswerFromFileStore(PeerId node,
                                         const overlay::QueryMessage& query);

  /// One peer's recurring maintenance tick: runs the work, then re-arms.
  void MaintenanceTick(PeerId p);
  /// Schedules `p`'s next tick one maintenance interval on, node-sourced, on
  /// its shard's tick lane (sim::ShardedSimulator::ScheduleTick).
  void RearmMaintenanceTick(PeerId p);
  /// The tick's work: the protocol's maintenance (index expiry, Bloom
  /// gossip, DHT republish) unless `p` is quiet, orphan re-attachment under
  /// churn. A tick that ran recomputes the quiet byte.
  void MaintenanceWork(PeerId p);

  /// CHECK-fails when a multi-shard run's executing shard does not own `p`.
  void CheckOwner(PeerId p) const;

  // --- churn lifecycle (shard-safe: owner events + routed repair links) ---

  /// End-of-run instant: last submission + 2x deadline + slack. Also the
  /// churn timeline's generation bound.
  sim::SimTime RunHorizon() const;

  /// Schedules every timeline transition (<= RunHorizon()) as an owner-shard
  /// PeerDown/PeerUp event. Controller phase only.
  void ScheduleChurnTimeline();

  /// PeerDown: drop own half-links, notify ex-neighbors via LinkDrop
  /// messages, clear session state (visits lapse with the epoch).
  void HandleDeparture(PeerId p);
  /// PeerUp: fresh session epoch, probe for rejoin links.
  void HandleRejoin(PeerId p);

  /// Sends LinkProbe to up to `want` distinct online non-neighbors, drawn
  /// from a stream keyed by (p, p's probe-round counter).
  void StartLinkProbes(PeerId p, size_t want);

  /// p's self-description for link handshakes (gid, degree, epoch; the
  /// advertised filter only when `with_filter` — the accept direction. The
  /// probe direction omits it: the prober pushes its filter as a full-state
  /// BloomUpdate once the handshake completes, so the receiver's delta
  /// baseline can never desync against gossip racing the handshake).
  overlay::LinkAnnounce MakeAnnounce(PeerId p, bool with_filter);

  void DeliverLinkDrop(PeerId to, const overlay::LinkDropMessage& msg);
  void DeliverLinkProbe(PeerId to, const overlay::LinkProbeMessage& msg);
  void DeliverLinkAccept(PeerId to, const overlay::LinkAcceptMessage& msg);

  /// `qid`'s track in `shard`, or null after cleanup.
  QueryTrack* TrackOf(sim::ShardId shard, QueryId qid);

  ExperimentConfig config_;
  uint32_t num_shards_ = 1;
  /// Immutable peer → shard map; built in Setup before anything consults
  /// shard_of (default-constructed it maps everything to shard 0).
  sim::ShardPlacement placement_;
  Rng root_rng_;
  uint64_t decision_seed_ = 0;
  uint64_t churn_seed_ = 0;

  std::unique_ptr<sim::ShardedSimulator> sim_;
  std::unique_ptr<net::Underlay> underlay_;
  std::unique_ptr<overlay::OverlayGraph> graph_;
  catalog::FileCatalog catalog_;
  catalog::QueryWorkload workload_;
  std::unique_ptr<Protocol> protocol_;
  overlay::ChurnModel churn_model_;
  overlay::ChurnTimeline churn_timeline_;

  std::vector<NodeState> nodes_;
  /// One byte per peer, set while Protocol::MaintenanceIdle holds for it, so
  /// a quiet tick reads this byte instead of the peer's cold index and
  /// filters. Written only by the peer's owner shard: seeded at Create,
  /// cleared by WakeMaintenance, recomputed after every tick that ran. Writes
  /// happen only on a flip, so a busy peer's inserts and ticks do not keep
  /// dirtying a cache line that other shards' peers share.
  std::vector<uint8_t> maintenance_quiet_;
  std::vector<ShardState> shards_;

  metrics::MetricsCollector metrics_;  ///< merged from shards at Run() exit
};

}  // namespace locaware::core
