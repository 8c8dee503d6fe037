// The physical ("underlay") network beneath the P2P overlay.
//
// The paper generates "an underlying topology of peers connected with links of
// variable latencies; the model inspired by BRITE assigns latencies between 10
// and 500 ms" (§5.1). We reproduce BRITE's Waxman mode: routers are placed on
// a unit plane, edges appear with probability α·exp(−d/(β·L)), link latency is
// proportional to Euclidean length, and peers hang off routers via short
// access links. Peer-to-peer RTT is twice the one-way shortest-path latency.
//
// The plane geometry matters: it is what makes landmark-RTT orderings
// (locIds) spatially coherent, the property Locaware's provider selection
// exploits. A geometry-free alternative (UniformUnderlay) is provided for the
// ablation that shows the locId mechanism needs coherent distances.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "net/point.h"

namespace locaware::net {

/// \brief Abstract physical network: pairwise peer RTTs plus RTTs from peers
/// to a small set of landmark hosts.
class Underlay {
 public:
  virtual ~Underlay() = default;

  virtual size_t num_peers() const = 0;
  virtual size_t num_landmarks() const = 0;

  /// Round-trip time between two peers in milliseconds. Symmetric;
  /// RttMs(a, a) is the loopback cost (0 for all current implementations).
  virtual double RttMs(PeerId a, PeerId b) const = 0;

  /// Round-trip time from a peer to a landmark host in milliseconds.
  virtual double LandmarkRttMs(PeerId peer, size_t landmark) const = 0;

  /// Lower bound (> 0) on RttMs(a, b) over all DISTINCT peer pairs, or 0 when
  /// the implementation cannot bound it. The sharded engine's scalar
  /// lookahead floor comes from this: every cross-shard delivery takes at least
  /// MinPairRttMs()/2 one-way, so no shard ever needs to wait on a remote
  /// event closer than that. Implementations may return any valid lower
  /// bound; tighter bounds mean wider windows and fewer barriers.
  virtual double MinPairRttMs() const { return 0.0; }

  // --- locality structure for per-shard-pair lookahead bounds ---------------
  //
  // The topology-aware scheduler wants a tighter statement than "some pair of
  // peers is close": a lower bound on the RTT between peers of two specific
  // *locations* (latency classes — routers for the geometric model). The
  // engine digests each shard's peer set into its location set and takes the
  // min of PairRttLowerBoundMs over the cross product, so two shards whose
  // peers are all far apart get a deep lookahead even when the global
  // MinPairRttMs is tiny. Implementations without locality keep the defaults
  // (one location, global-min bound) and lose nothing.

  /// Number of distinct latency locations ( > 0). Location ids are
  /// [0, num_locations()).
  virtual size_t num_locations() const { return 1; }

  /// Latency location of a peer. Immutable over the underlay's lifetime.
  virtual size_t LocationOf(PeerId /*peer*/) const { return 0; }

  /// Lower bound (> 0 when MinPairRttMs() is) on RttMs(a, b) over all
  /// DISTINCT peer pairs with LocationOf(a) == loc_a and LocationOf(b) ==
  /// loc_b. Must never exceed the true minimum for any such pair; the global
  /// min is always a valid (if loose) answer, and the default.
  virtual double PairRttLowerBoundMs(size_t /*loc_a*/, size_t /*loc_b*/) const {
    return MinPairRttMs();
  }

  /// One-line description for reports.
  virtual std::string Describe() const = 0;
};

/// How router-level edges are generated — BRITE's two standard models.
enum class RouterGraphModel {
  /// Waxman 1988: P(edge u,v) = α·exp(−d/(β·L)). Geometric, flat degrees.
  kWaxman,
  /// Barabási–Albert 1999: incremental preferential attachment. Heavy-tailed
  /// degrees (transit hubs), still embedded in the plane for latencies.
  kBarabasiAlbert,
};

const char* RouterGraphModelName(RouterGraphModel model);

/// Parameters for the BRITE-inspired geometric underlay.
struct GeometricUnderlayConfig {
  /// Router-level graph size. 200 routers for 1000 peers gives ~5 peers per
  /// access router, a common transit-stub shape.
  size_t num_routers = 200;
  size_t num_peers = 1000;
  size_t num_landmarks = 4;

  RouterGraphModel model = RouterGraphModel::kWaxman;

  /// Waxman parameters: P(edge u,v) = waxman_alpha * exp(-d(u,v)/(waxman_beta * L))
  /// with L the plane diagonal. Defaults give mean router degree ≈ 6 at 200
  /// routers; the builder patches any disconnection with shortest bridges.
  double waxman_alpha = 0.15;
  double waxman_beta = 0.18;

  /// Barabási–Albert: edges each arriving router attaches preferentially.
  size_t ba_links_per_router = 2;

  /// Target peer-to-peer RTT band in milliseconds (paper: 10–500 ms).
  double min_rtt_ms = 10.0;
  double max_rtt_ms = 500.0;

  /// Access-link one-way latency band (peer to its router).
  double access_min_ms = 1.0;
  double access_max_ms = 5.0;
};

/// \brief Waxman router graph with distance-proportional latencies.
///
/// Build via GeometricUnderlay::Build. Router-level all-pairs shortest paths
/// are precomputed, so RttMs is O(1).
///
/// The precompute relaxes every source at once. While it runs, the table is
/// stored transposed (entry [v][s] is the distance from s to v), so relaxing
/// edge u -> v for all sources is `row_v[s] = min(row_v[s], row_u[s] + w)`
/// over two contiguous rows, a loop GCC vectorizes at -O3. Gauss–Seidel
/// sweeps visit v in index order, skip a neighbour whose row has not changed
/// since v last read it, and stop after a sweep that changes nothing; the
/// table is then transposed in place to row-major by source. The result is
/// bit-stable: every label is a left fold d[u] + w(u, v) with w > 0, and IEEE
/// addition is monotone, so Dijkstra and any label-correcting scheme reach
/// the same least fixed point, the minimum over paths of those folds,
/// whatever their visiting order. Rewrites that re-associate the sums would
/// change bits and so every seed's results: Floyd–Warshall (d[i][k] +
/// d[k][j]), filling row t from row s by symmetry (a fold from t is not a
/// fold from s), float labels, and fast-math or FMA-contraction flags.
/// `GeometricUnderlayTest.ApspTableIsPinnedBitForBit` pins the table. The
/// kernel is not threaded: set-up is measured as process CPU time, which
/// threads do not lower, and Build would stop being single-threaded for
/// every caller.
class GeometricUnderlay final : public Underlay {
 public:
  /// Constructs the underlay. Fails with InvalidArgument on nonsensical
  /// configs (zero sizes, inverted bands, more landmarks than routers).
  static Result<std::unique_ptr<GeometricUnderlay>> Build(
      const GeometricUnderlayConfig& config, Rng* rng);

  size_t num_peers() const override { return peer_router_.size(); }
  size_t num_landmarks() const override { return landmark_router_.size(); }
  double RttMs(PeerId a, PeerId b) const override;
  double LandmarkRttMs(PeerId peer, size_t landmark) const override;
  /// 4 x the minimum access latency: two peers (even on one router) cross two
  /// access links each way, and router paths only add to that.
  double MinPairRttMs() const override { return min_pair_rtt_ms_; }
  /// Locations are routers: latency between two peers is bounded below by
  /// their routers' shortest path plus each router's cheapest access link.
  size_t num_locations() const override { return router_pos_.size(); }
  size_t LocationOf(PeerId peer) const override;
  double PairRttLowerBoundMs(size_t loc_a, size_t loc_b) const override;
  std::string Describe() const override;

  // --- introspection (tests, reports, visualization) ---
  size_t num_routers() const { return router_pos_.size(); }
  size_t num_router_edges() const { return num_edges_; }
  RouterGraphModel model() const { return model_; }
  /// Degree of a router in the generated graph (for topology diagnostics).
  size_t RouterDegree(RouterId rid) const;
  RouterId peer_router(PeerId p) const { return peer_router_[p]; }
  const Point& router_pos(RouterId r) const { return router_pos_[r]; }
  RouterId landmark_router(size_t l) const { return landmark_router_[l]; }
  /// One-way router-to-router latency (ms) along the shortest path.
  double RouterLatencyMs(RouterId a, RouterId b) const;

 private:
  GeometricUnderlay() = default;

  double OneWayMs(PeerId a, PeerId b) const;

  std::vector<Point> router_pos_;
  std::vector<double> router_spath_ms_;  // row-major num_routers^2, one-way ms
  std::vector<RouterId> peer_router_;
  std::vector<double> peer_access_ms_;
  std::vector<RouterId> landmark_router_;
  std::vector<uint32_t> router_degree_;
  /// Cheapest access link of any peer attached to each router (ms); the
  /// access floor for peer-less routers, so bounds stay valid lower bounds.
  std::vector<double> router_min_access_ms_;
  size_t num_edges_ = 0;
  RouterGraphModel model_ = RouterGraphModel::kWaxman;
  double min_pair_rtt_ms_ = 0.0;
};

/// Parameters for the geometry-free control underlay.
struct UniformUnderlayConfig {
  size_t num_peers = 1000;
  size_t num_landmarks = 4;
  double min_rtt_ms = 10.0;
  double max_rtt_ms = 500.0;
};

/// \brief Control model: every peer pair gets an i.i.d. uniform RTT; landmark
/// RTTs are i.i.d. too, so locIds carry no spatial information. Used by the
/// locality ablation; pairwise RTTs are derived on the fly from a hash of the
/// pair, so memory stays O(num_peers).
class UniformUnderlay final : public Underlay {
 public:
  static Result<std::unique_ptr<UniformUnderlay>> Build(
      const UniformUnderlayConfig& config, Rng* rng);

  size_t num_peers() const override { return num_peers_; }
  size_t num_landmarks() const override { return num_landmarks_; }
  double RttMs(PeerId a, PeerId b) const override;
  double LandmarkRttMs(PeerId peer, size_t landmark) const override;
  /// Distinct-pair RTTs are drawn from [min_rtt, max_rtt], so min_rtt bounds.
  double MinPairRttMs() const override { return min_rtt_ms_; }
  std::string Describe() const override;

 private:
  UniformUnderlay() = default;

  size_t num_peers_ = 0;
  size_t num_landmarks_ = 0;
  double min_rtt_ms_ = 0.0;
  double max_rtt_ms_ = 0.0;
  uint64_t pair_seed_ = 0;
};

}  // namespace locaware::net
