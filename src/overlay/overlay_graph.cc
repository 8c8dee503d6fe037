#include "overlay/overlay_graph.h"

#include <algorithm>
#include <deque>

#include "common/check.h"
#include "sim/sharded_simulator.h"

namespace locaware::overlay {

Result<OverlayGraph> OverlayGraph::Generate(const OverlayConfig& config, Rng* rng) {
  if (config.num_peers == 0) return Status::InvalidArgument("num_peers must be > 0");
  if (config.avg_degree < 1.0 && config.num_peers > 1) {
    return Status::InvalidArgument("avg_degree must be >= 1 for a connected overlay");
  }
  // A simple graph on n peers has at most n - 1 links per peer; asking for
  // more (or for NaN) could only exhaust the placement attempts below.
  if (!(config.avg_degree <= static_cast<double>(config.num_peers - 1))) {
    return Status::InvalidArgument("avg_degree must be <= num_peers - 1");
  }

  // Every session epoch is 0 while the graph is generated, so AddLink fills
  // only the adjacency; each link-epoch row is sized once, to zeros, at the
  // end.
  OverlayGraph g;
  g.adjacency_.resize(config.num_peers);
  g.link_epoch_.resize(config.num_peers);
  g.session_epoch_.assign(config.num_peers, 0);
  g.alive_.assign(config.num_peers, 1);

  const size_t n = config.num_peers;
  const size_t target_links = static_cast<size_t>(config.avg_degree * n / 2.0);

  // G(n, m): sample distinct random pairs until m links exist.
  size_t placed = 0;
  size_t attempts = 0;
  const size_t max_attempts = target_links * 50 + 1000;
  while (placed < target_links && attempts < max_attempts) {
    ++attempts;
    const PeerId a = static_cast<PeerId>(rng->UniformInt(0, n - 1));
    const PeerId b = static_cast<PeerId>(rng->UniformInt(0, n - 1));
    if (g.AddLink(a, b)) ++placed;
  }
  if (placed < target_links) {
    return Status::Internal("could not place the requested number of links");
  }

  // Connectivity patch: BFS labels components, then each non-root component
  // gets one bridge to a random peer of the giant component. A G(n, m) graph
  // at degree 3 leaves about 5% of its peers isolated, so the frontier is
  // shared across components rather than rebuilt per component.
  std::vector<int> component(n, -1);
  int num_components = 0;
  std::deque<PeerId> frontier;
  for (PeerId seed = 0; seed < n; ++seed) {
    if (component[seed] != -1) continue;
    const int c = num_components++;
    frontier.push_back(seed);
    component[seed] = c;
    while (!frontier.empty()) {
      const PeerId u = frontier.front();
      frontier.pop_front();
      for (PeerId v : g.adjacency_[u]) {
        if (component[v] == -1) {
          component[v] = c;
          frontier.push_back(v);
        }
      }
    }
  }
  if (num_components > 1) {
    // Bridge every component to the first with random anchors so no single
    // peer becomes a hub. Component c's members, in id order, are
    // by_component[first[c], first[c + 1]): a counting sort by label.
    std::vector<size_t> first(num_components + 1, 0);
    for (PeerId p = 0; p < n; ++p) ++first[component[p] + 1];
    for (int c = 0; c < num_components; ++c) first[c + 1] += first[c];
    std::vector<size_t> next(first.begin(), first.end() - 1);
    std::vector<PeerId> by_component(n);
    for (PeerId p = 0; p < n; ++p) by_component[next[component[p]]++] = p;
    const auto random_member = [&](int c) {
      return by_component[first[c] + rng->UniformInt(0, first[c + 1] - first[c] - 1)];
    };
    for (int c = 1; c < num_components; ++c) {
      const PeerId from = random_member(c);
      const PeerId to = random_member(0);
      LOCAWARE_CHECK(g.AddLink(from, to));
    }
  }
  for (PeerId p = 0; p < n; ++p) g.link_epoch_[p].resize(g.adjacency_[p].size());
  LOCAWARE_CHECK(g.IsConnected());
  return g;
}

void OverlayGraph::SetPartitionedOwnership(uint32_t num_shards,
                                           std::vector<uint32_t> owner_of) {
  LOCAWARE_CHECK_GT(num_shards, 0u);
  if (!owner_of.empty()) {
    LOCAWARE_CHECK_EQ(owner_of.size(), adjacency_.size());
  }
  owner_shards_ = num_shards;
  owner_of_ = std::move(owner_of);
}

void OverlayGraph::AssertOwner(PeerId p) const {
  if (owner_shards_ <= 1) return;
  const sim::ShardId cur = sim::ShardedSimulator::current_shard();
  if (cur == sim::kNoShard) return;  // controller phase, tests
  const sim::ShardId owner = owner_of_.empty()
                                 ? static_cast<sim::ShardId>(p % owner_shards_)
                                 : static_cast<sim::ShardId>(owner_of_[p]);
  LOCAWARE_CHECK_EQ(cur, owner) << "cross-shard overlay access to peer " << p;
}

size_t OverlayGraph::num_alive() const {
  return static_cast<size_t>(std::count(alive_.begin(), alive_.end(), 1));
}

size_t OverlayGraph::num_links() const {
  size_t half_edges = 0;
  for (const auto& adj : adjacency_) half_edges += adj.size();
  return half_edges / 2;
}

double OverlayGraph::AverageDegree() const {
  const size_t alive = num_alive();
  if (alive == 0) return 0.0;
  return 2.0 * static_cast<double>(num_links()) / static_cast<double>(alive);
}

bool OverlayGraph::IsAlive(PeerId p) const {
  LOCAWARE_CHECK_LT(p, alive_.size());
  AssertOwner(p);
  return alive_[p] != 0;
}

const OverlayGraph::NeighborList& OverlayGraph::Neighbors(PeerId p) const {
  LOCAWARE_CHECK_LT(p, adjacency_.size());
  AssertOwner(p);
  return adjacency_[p];
}

const OverlayGraph::EpochList& OverlayGraph::LinkEpochs(PeerId p) const {
  LOCAWARE_CHECK_LT(p, link_epoch_.size());
  AssertOwner(p);
  return link_epoch_[p];
}

size_t OverlayGraph::Degree(PeerId p) const { return Neighbors(p).size(); }

bool OverlayGraph::AreNeighbors(PeerId a, PeerId b) const {
  const auto& adj = Neighbors(a);
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

bool OverlayGraph::AddLink(PeerId a, PeerId b) {
  LOCAWARE_CHECK_LT(b, adjacency_.size());
  if (a == b || AreNeighbors(a, b)) return false;
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  return true;
}

std::vector<PeerId> OverlayGraph::GoOffline(PeerId p) {
  LOCAWARE_CHECK_LT(p, adjacency_.size());
  AssertOwner(p);
  LOCAWARE_CHECK(alive_[p]) << "GoOffline of offline peer " << p;
  alive_[p] = 0;
  // ToVector + clear rather than a move: the row keeps its spilled
  // capacity for the links the peer re-establishes when it rejoins.
  std::vector<PeerId> dropped = adjacency_[p].ToVector();
  adjacency_[p].clear();
  link_epoch_[p].clear();
  return dropped;
}

void OverlayGraph::GoOnline(PeerId p) {
  LOCAWARE_CHECK_LT(p, adjacency_.size());
  AssertOwner(p);
  LOCAWARE_CHECK(!alive_[p]) << "GoOnline of online peer " << p;
  LOCAWARE_CHECK(adjacency_[p].empty());
  alive_[p] = 1;
  ++session_epoch_[p];
}

bool OverlayGraph::AddHalfLink(PeerId p, PeerId nb, uint32_t nb_epoch) {
  LOCAWARE_CHECK_LT(p, adjacency_.size());
  LOCAWARE_CHECK_LT(nb, adjacency_.size());
  AssertOwner(p);
  LOCAWARE_CHECK(alive_[p]) << "AddHalfLink at offline peer " << p;
  if (nb == p) return false;
  auto it = std::find(adjacency_[p].begin(), adjacency_[p].end(), nb);
  if (it != adjacency_[p].end()) {
    // Re-established within our view: keep the freshest epoch so a stale
    // LinkDrop from the old session cannot remove the new link.
    uint32_t& stamp = link_epoch_[p][it - adjacency_[p].begin()];
    stamp = std::max(stamp, nb_epoch);
    return false;
  }
  adjacency_[p].push_back(nb);
  link_epoch_[p].push_back(nb_epoch);
  return true;
}

bool OverlayGraph::RemoveHalfLink(PeerId p, PeerId nb, uint32_t max_epoch) {
  LOCAWARE_CHECK_LT(p, adjacency_.size());
  AssertOwner(p);
  auto it = std::find(adjacency_[p].begin(), adjacency_[p].end(), nb);
  if (it == adjacency_[p].end()) return false;
  const size_t idx = static_cast<size_t>(it - adjacency_[p].begin());
  if (link_epoch_[p][idx] > max_epoch) return false;  // newer session's link
  adjacency_[p].erase(it);
  link_epoch_[p].erase(link_epoch_[p].begin() + idx);
  return true;
}

bool OverlayGraph::HasHalfLink(PeerId p, PeerId nb) const {
  LOCAWARE_CHECK_LT(p, adjacency_.size());
  AssertOwner(p);
  return std::find(adjacency_[p].begin(), adjacency_[p].end(), nb) !=
         adjacency_[p].end();
}

uint32_t OverlayGraph::session_epoch(PeerId p) const {
  LOCAWARE_CHECK_LT(p, session_epoch_.size());
  AssertOwner(p);
  return session_epoch_[p];
}

bool OverlayGraph::IsConnected() const { return LargestComponentFraction() >= 1.0; }

double OverlayGraph::LargestComponentFraction() const {
  const size_t alive = num_alive();
  if (alive == 0) return 0.0;
  std::vector<char> visited(adjacency_.size(), 0);
  size_t largest = 0;
  for (PeerId seed = 0; seed < adjacency_.size(); ++seed) {
    if (!alive_[seed] || visited[seed]) continue;
    size_t size = 0;
    std::deque<PeerId> frontier{seed};
    visited[seed] = 1;
    while (!frontier.empty()) {
      const PeerId u = frontier.front();
      frontier.pop_front();
      ++size;
      for (PeerId v : adjacency_[u]) {
        // Half-edges may dangle toward departed peers; components only count
        // (and traverse) alive members.
        if (!alive_[v] || visited[v]) continue;
        visited[v] = 1;
        frontier.push_back(v);
      }
    }
    largest = std::max(largest, size);
  }
  return static_cast<double>(largest) / static_cast<double>(alive);
}

}  // namespace locaware::overlay
