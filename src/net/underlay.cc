#include "net/underlay.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/hash.h"

namespace locaware::net {

namespace {

/// Union-find over router ids, used for connectivity patching.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n), rank_(n, 0) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    return true;
  }

 private:
  std::vector<size_t> parent_;
  std::vector<uint8_t> rank_;
};

struct Edge {
  RouterId to;
  double length;  // Euclidean, converted to ms after normalization
};

}  // namespace

const char* RouterGraphModelName(RouterGraphModel model) {
  switch (model) {
    case RouterGraphModel::kWaxman:
      return "waxman";
    case RouterGraphModel::kBarabasiAlbert:
      return "barabasi-albert";
  }
  return "?";
}

Result<std::unique_ptr<GeometricUnderlay>> GeometricUnderlay::Build(
    const GeometricUnderlayConfig& config, Rng* rng) {
  if (config.num_routers == 0) {
    return Status::InvalidArgument("num_routers must be > 0");
  }
  if (config.num_peers == 0) {
    return Status::InvalidArgument("num_peers must be > 0");
  }
  if (config.num_landmarks > config.num_routers) {
    return Status::InvalidArgument("more landmarks than routers");
  }
  if (config.min_rtt_ms < 0 || config.max_rtt_ms <= config.min_rtt_ms) {
    return Status::InvalidArgument("RTT band must satisfy 0 <= min < max");
  }
  if (config.access_min_ms < 0 || config.access_max_ms < config.access_min_ms) {
    return Status::InvalidArgument("access latency band inverted");
  }
  if (config.model == RouterGraphModel::kBarabasiAlbert &&
      config.ba_links_per_router == 0) {
    return Status::InvalidArgument("ba_links_per_router must be > 0");
  }

  auto underlay = std::unique_ptr<GeometricUnderlay>(new GeometricUnderlay());
  const size_t r = config.num_routers;

  // 1. Place routers uniformly on the unit plane.
  underlay->router_pos_.resize(r);
  for (Point& p : underlay->router_pos_) {
    p.x = rng->NextDouble();
    p.y = rng->NextDouble();
  }

  // 2. Router edges per the configured BRITE model.
  std::vector<std::vector<Edge>> adj(r);
  DisjointSets components(r);
  size_t num_edges = 0;
  const auto add_edge = [&](RouterId u, RouterId v) {
    const double d = Distance(underlay->router_pos_[u], underlay->router_pos_[v]);
    adj[u].push_back({v, d});
    adj[v].push_back({u, d});
    components.Union(u, v);
    ++num_edges;
  };

  if (config.model == RouterGraphModel::kWaxman) {
    // Waxman: P(u,v) = alpha * exp(-d / (beta * L)), L = diagonal.
    const double plane_diag = std::sqrt(2.0);
    for (RouterId u = 0; u < r; ++u) {
      for (RouterId v = u + 1; v < r; ++v) {
        const double d = Distance(underlay->router_pos_[u], underlay->router_pos_[v]);
        const double p =
            config.waxman_alpha * std::exp(-d / (config.waxman_beta * plane_diag));
        if (rng->Bernoulli(p)) add_edge(u, v);
      }
    }
  } else {
    // Barabási–Albert: routers arrive in index order; each attaches
    // `ba_links_per_router` edges to distinct earlier routers chosen with
    // probability proportional to current degree (+1 so isolated seeds can
    // be picked). Connected by construction once r > 1.
    const size_t m = config.ba_links_per_router;
    for (RouterId v = 1; v < r; ++v) {
      const size_t links = std::min<size_t>(m, v);
      std::vector<RouterId> chosen;
      size_t attempts = 0;
      while (chosen.size() < links && attempts < 200 * links) {
        ++attempts;
        // Roulette over degree+1 of routers [0, v).
        size_t total = 0;
        for (RouterId u = 0; u < v; ++u) total += adj[u].size() + 1;
        uint64_t pick = rng->UniformInt(0, total - 1);
        RouterId target = 0;
        for (RouterId u = 0; u < v; ++u) {
          const size_t w = adj[u].size() + 1;
          if (pick < w) {
            target = u;
            break;
          }
          pick -= w;
        }
        if (std::find(chosen.begin(), chosen.end(), target) == chosen.end()) {
          chosen.push_back(target);
        }
      }
      for (RouterId u : chosen) add_edge(v, u);
    }
  }

  // 3. Patch connectivity: repeatedly bridge the closest pair of routers that
  // lie in different components (a lightweight inter-component MST).
  while (true) {
    RouterId best_u = 0, best_v = 0;
    double best_d = std::numeric_limits<double>::infinity();
    bool found = false;
    for (RouterId u = 0; u < r; ++u) {
      for (RouterId v = u + 1; v < r; ++v) {
        if (components.Find(u) == components.Find(v)) continue;
        const double d = Distance(underlay->router_pos_[u], underlay->router_pos_[v]);
        if (d < best_d) {
          best_d = d;
          best_u = u;
          best_v = v;
          found = true;
        }
      }
    }
    if (!found) break;  // single component
    adj[best_u].push_back({best_v, best_d});
    adj[best_v].push_back({best_u, best_d});
    components.Union(best_u, best_v);
    ++num_edges;
  }
  underlay->num_edges_ = num_edges;
  underlay->model_ = config.model;
  underlay->router_degree_.resize(r);
  for (RouterId u = 0; u < r; ++u) {
    underlay->router_degree_[u] = static_cast<uint32_t>(adj[u].size());
  }

  // 4. Router-level APSP in Euclidean units, every source at once (see the
  // class comment for why the table is bit-stable). While it is computed,
  // spath[v * r + s] is the distance from s to v, so relaxing edge u -> v for
  // every source is one pass over two contiguous rows. Gauss–Seidel sweeps
  // visit v in index order and skip a neighbour u whose row has not changed
  // since v last read it; a sweep that changes nothing is the fixed point.
  std::vector<double>& spath = underlay->router_spath_ms_;
  spath.assign(r * r, std::numeric_limits<double>::infinity());
  for (RouterId v = 0; v < r; ++v) spath[v * r + v] = 0.0;
  std::vector<uint64_t> changed_at(r, 1);  // clock of each row's last change
  std::vector<uint64_t> read_at(r, 0);     // clock of each row's last read
  uint64_t clock = 1;
  for (bool sweep_changed = true; sweep_changed;) {
    sweep_changed = false;
    for (RouterId v = 0; v < r; ++v) {
      const uint64_t last_read = read_at[v];
      read_at[v] = ++clock;
      double* row_v = &spath[v * r];
      uint64_t changed_bits = 0;  // a bool here would block vectorization
      for (const Edge& e : adj[v]) {
        if (changed_at[e.to] < last_read) continue;
        const double* row_u = &spath[e.to * r];
        const double w = e.length;
        for (size_t s = 0; s < r; ++s) {
          const double via = row_u[s] + w;
          const double old = row_v[s];
          const double best = via < old ? via : old;
          changed_bits |= std::bit_cast<uint64_t>(best) ^ std::bit_cast<uint64_t>(old);
          row_v[s] = best;
        }
      }
      if (changed_bits != 0) {
        changed_at[v] = clock;
        sweep_changed = true;
      }
    }
  }
  // Transpose in place to row-major by source, as the accessors read it.
  for (RouterId a = 0; a < r; ++a) {
    for (RouterId b = a + 1; b < r; ++b) std::swap(spath[a * r + b], spath[b * r + a]);
  }
  double max_path = 0.0;
  for (const double d : spath) {
    LOCAWARE_CHECK(std::isfinite(d)) << "router graph disconnected";
    max_path = std::max(max_path, d);
  }

  // 5. Normalize path lengths into milliseconds so that peer-to-peer RTTs span
  // roughly [min_rtt, max_rtt]: the farthest router pair plus two maximal
  // access links maps to max_rtt, and a same-router pair plus two minimal
  // access links maps to ~min_rtt (access links are shifted up if needed).
  double access_lo = config.access_min_ms;
  double access_hi = config.access_max_ms;
  const double min_core = config.min_rtt_ms / 2.0;  // one-way budget at d = 0
  if (2.0 * access_lo < min_core) {
    const double shift = min_core / 2.0 - access_lo;
    access_lo += shift;
    access_hi += shift;
  }
  const double max_core = config.max_rtt_ms / 2.0 - 2.0 * access_hi;
  const double scale = (max_path > 0 && max_core > 0) ? max_core / max_path : 0.0;
  for (double& d : underlay->router_spath_ms_) d *= scale;

  // 6. Attach peers to uniformly chosen routers with random access latency.
  // Every distinct-pair one-way path crosses two access links, so 4 x the
  // (possibly shifted) access floor lower-bounds all pairwise RTTs — the
  // conservative-lookahead bound the sharded engine runs on.
  underlay->min_pair_rtt_ms_ = 4.0 * access_lo;
  underlay->peer_router_.resize(config.num_peers);
  underlay->peer_access_ms_.resize(config.num_peers);
  // Per-router access floor: the cheapest attached access link, falling back
  // to the global floor for peer-less routers. PairRttLowerBoundMs builds on
  // this — using a min (not the actual two peers involved) keeps it a valid
  // lower bound even for two peers sharing one router.
  underlay->router_min_access_ms_.assign(r, access_lo);
  for (size_t p = 0; p < config.num_peers; ++p) {
    const RouterId router = static_cast<RouterId>(rng->UniformInt(0, r - 1));
    const double access = rng->UniformDouble(access_lo, access_hi);
    underlay->peer_router_[p] = router;
    underlay->peer_access_ms_[p] = access;
  }
  std::vector<char> router_has_peer(r, 0);
  for (size_t p = 0; p < config.num_peers; ++p) {
    const RouterId router = underlay->peer_router_[p];
    double& floor = underlay->router_min_access_ms_[router];
    floor = router_has_peer[router] ? std::min(floor, underlay->peer_access_ms_[p])
                                    : underlay->peer_access_ms_[p];
    router_has_peer[router] = 1;
  }

  // 7. Landmarks: greedy max-min placement over routers, so the k landmarks
  // are spread apart ("well-known machines spread across the Internet").
  if (config.num_landmarks > 0) {
    std::vector<RouterId>& lm = underlay->landmark_router_;
    lm.push_back(static_cast<RouterId>(rng->UniformInt(0, r - 1)));
    while (lm.size() < config.num_landmarks) {
      RouterId best = 0;
      double best_score = -1.0;
      for (RouterId cand = 0; cand < r; ++cand) {
        double nearest = std::numeric_limits<double>::infinity();
        for (RouterId chosen : lm) {
          nearest = std::min(
              nearest,
              Distance(underlay->router_pos_[cand], underlay->router_pos_[chosen]));
        }
        if (nearest > best_score) {
          best_score = nearest;
          best = cand;
        }
      }
      lm.push_back(best);
    }
  }

  return underlay;
}

double GeometricUnderlay::OneWayMs(PeerId a, PeerId b) const {
  LOCAWARE_CHECK_LT(a, peer_router_.size());
  LOCAWARE_CHECK_LT(b, peer_router_.size());
  if (a == b) return 0.0;
  const size_t r = router_pos_.size();
  return peer_access_ms_[a] + peer_access_ms_[b] +
         router_spath_ms_[peer_router_[a] * r + peer_router_[b]];
}

double GeometricUnderlay::RttMs(PeerId a, PeerId b) const { return 2.0 * OneWayMs(a, b); }

double GeometricUnderlay::LandmarkRttMs(PeerId peer, size_t landmark) const {
  LOCAWARE_CHECK_LT(peer, peer_router_.size());
  LOCAWARE_CHECK_LT(landmark, landmark_router_.size());
  const size_t r = router_pos_.size();
  const double one_way =
      peer_access_ms_[peer] +
      router_spath_ms_[peer_router_[peer] * r + landmark_router_[landmark]];
  return 2.0 * one_way;
}

size_t GeometricUnderlay::LocationOf(PeerId peer) const {
  LOCAWARE_CHECK_LT(peer, peer_router_.size());
  return peer_router_[peer];
}

double GeometricUnderlay::PairRttLowerBoundMs(size_t loc_a, size_t loc_b) const {
  LOCAWARE_CHECK_LT(loc_a, router_pos_.size());
  LOCAWARE_CHECK_LT(loc_b, router_pos_.size());
  // Any distinct pair (a on loc_a, b on loc_b) pays access_a + access_b +
  // spath one-way; both access links are bounded below by their routers'
  // floors (for loc_a == loc_b, by twice the shared floor).
  const double one_way = router_min_access_ms_[loc_a] + router_min_access_ms_[loc_b] +
                         router_spath_ms_[loc_a * router_pos_.size() + loc_b];
  return 2.0 * one_way;
}

double GeometricUnderlay::RouterLatencyMs(RouterId a, RouterId b) const {
  LOCAWARE_CHECK_LT(a, router_pos_.size());
  LOCAWARE_CHECK_LT(b, router_pos_.size());
  return router_spath_ms_[a * router_pos_.size() + b];
}

size_t GeometricUnderlay::RouterDegree(RouterId rid) const {
  LOCAWARE_CHECK_LT(rid, router_degree_.size());
  return router_degree_[rid];
}

std::string GeometricUnderlay::Describe() const {
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "GeometricUnderlay{model=%s routers=%zu edges=%zu peers=%zu landmarks=%zu}",
      RouterGraphModelName(model_), num_routers(), num_edges_, num_peers(),
      num_landmarks());
  return buf;
}

Result<std::unique_ptr<UniformUnderlay>> UniformUnderlay::Build(
    const UniformUnderlayConfig& config, Rng* rng) {
  if (config.num_peers == 0) {
    return Status::InvalidArgument("num_peers must be > 0");
  }
  if (config.min_rtt_ms < 0 || config.max_rtt_ms <= config.min_rtt_ms) {
    return Status::InvalidArgument("RTT band must satisfy 0 <= min < max");
  }
  auto u = std::unique_ptr<UniformUnderlay>(new UniformUnderlay());
  u->num_peers_ = config.num_peers;
  u->num_landmarks_ = config.num_landmarks;
  u->min_rtt_ms_ = config.min_rtt_ms;
  u->max_rtt_ms_ = config.max_rtt_ms;
  u->pair_seed_ = rng->NextU64();
  return u;
}

double UniformUnderlay::RttMs(PeerId a, PeerId b) const {
  LOCAWARE_CHECK_LT(a, num_peers_);
  LOCAWARE_CHECK_LT(b, num_peers_);
  if (a == b) return 0.0;
  // Symmetric pair hash -> uniform double -> RTT band. No storage, no
  // geometry, stable across calls. Mix64 gives full avalanche; plain
  // HashCombine would leave the high bits nearly constant for small ids.
  const uint64_t lo = std::min(a, b);
  const uint64_t hi = std::max(a, b);
  const uint64_t h = Mix64(pair_seed_ ^ Mix64(lo * 0x9e3779b97f4a7c15ULL + hi));
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return min_rtt_ms_ + (max_rtt_ms_ - min_rtt_ms_) * unit;
}

double UniformUnderlay::LandmarkRttMs(PeerId peer, size_t landmark) const {
  LOCAWARE_CHECK_LT(peer, num_peers_);
  LOCAWARE_CHECK_LT(landmark, num_landmarks_);
  const uint64_t h = Mix64((pair_seed_ ^ 0xabcdef12345678ULL) +
                           Mix64(peer * 0xc2b2ae3d27d4eb4fULL + landmark));
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return min_rtt_ms_ + (max_rtt_ms_ - min_rtt_ms_) * unit;
}

std::string UniformUnderlay::Describe() const {
  char buf[120];
  std::snprintf(buf, sizeof(buf), "UniformUnderlay{peers=%zu landmarks=%zu}",
                num_peers_, num_landmarks_);
  return buf;
}

}  // namespace locaware::net
