#include "core/locaware_protocol.h"

#include <algorithm>

#include "bloom/bloom_delta.h"
#include "common/check.h"
#include "core/engine.h"
#include "core/group_hash.h"

namespace locaware::core {

void LocawareProtocol::InitNodeState(NodeState& node, uint64_t seed) const {
  Protocol::InitNodeState(node, seed);
  node.keyword_filter = std::make_unique<bloom::CountingBloomFilter>(
      params_.bloom_bits, params_.bloom_hashes);
  node.advertised_filter =
      std::make_unique<bloom::BloomFilter>(params_.bloom_bits, params_.bloom_hashes);
}

void LocawareProtocol::OnSetupComplete(Engine& engine) {
  // Each set-up link starts with a full-filter exchange, one message per
  // direction, charged to the sender. Nothing is cached yet, so every filter
  // sent is empty and no copy is stored: an absent copy reads as empty, and
  // the first gossiped delta applies to a fresh one (OnBloomUpdate).
  const uint64_t filter_bytes = (params_.bloom_bits + 7) / 8 + 29;  // + headers
  for (PeerId p = 0; p < engine.num_peers(); ++p) {
    const uint64_t degree = engine.graph().Degree(p);
    engine.CollectorAt(p).AddBloomUpdate(degree, degree * filter_bytes);
  }
}

PeerVec LocawareProtocol::BloomMatchedNeighbors(Engine& engine, PeerId node,
                                                const overlay::QueryMessage& query,
                                                PeerId from) const {
  NodeState& state = engine.node(node);
  const catalog::FileCatalog& catalog = engine.catalog();
  // Keyword-major order fetches each precomputed probe hash exactly once per
  // query, and the filter map is probed exactly once per neighbor (the
  // working set carries the filter pointers).
  SmallVector<std::pair<PeerId, const bloom::BloomFilter*>, 8> candidates;
  for (PeerId nb : engine.graph().Neighbors(node)) {
    if (nb == from) continue;
    auto it = state.neighbor_filters.find(nb);
    if (it != state.neighbor_filters.end()) candidates.push_back({nb, &it->second});
  }
  for (KeywordId kw : query.keywords) {
    if (candidates.empty()) break;
    const KeyHash128 hash = catalog.KeywordBloomHash(kw);
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&](const auto& cand) { return !cand.second->MayContain(hash); }),
        candidates.end());
  }
  PeerVec bloom_matched;
  bloom_matched.reserve(candidates.size());
  for (const auto& [nb, filter] : candidates) bloom_matched.push_back(nb);
  return bloom_matched;
}

PeerVec LocawareProtocol::ForwardTargets(Engine& engine, PeerId node,
                                         const overlay::QueryMessage& query,
                                         PeerId from) {
  const auto& neighbors = engine.graph().Neighbors(node);

  // 1. Neighbors whose Bloom filter matches every query keyword.
  PeerVec bloom_matched = BloomMatchedNeighbors(engine, node, query, from);
  if (!bloom_matched.empty()) return bloom_matched;

  // Optional §6 extension: prefer same-locality neighbors within a tier.
  const auto prefer_local = [&](PeerVec* tier) {
    if (!params_.loc_aware_routing || tier->empty()) return;
    PeerVec local;
    for (PeerId nb : *tier) {
      if (engine.loc_of(nb) == query.origin_loc) local.push_back(nb);
    }
    if (!local.empty()) *tier = std::move(local);
  };

  // 2. Neighbors whose Gid matches the query hash.
  const GroupId query_group = GroupOfSetFnv(query.kw_set_fnv, params_.num_groups);
  PeerVec gid_matched;
  for (PeerId nb : neighbors) {
    if (nb == from) continue;
    if (engine.gid_of(nb) == query_group) gid_matched.push_back(nb);
  }
  prefer_local(&gid_matched);
  if (!gid_matched.empty()) return gid_matched;

  // 3. Last resort: the most connected neighbors, "to avoid blocking the
  // query forwarding" (§4.2). With the §6 extension, locality outranks
  // degree.
  PeerVec rest;
  for (PeerId nb : neighbors) {
    if (nb != from) rest.push_back(nb);
  }
  std::sort(rest.begin(), rest.end(), [&](PeerId a, PeerId b) {
    if (params_.loc_aware_routing) {
      const bool la = engine.loc_of(a) == query.origin_loc;
      const bool lb = engine.loc_of(b) == query.origin_loc;
      if (la != lb) return la;
    }
    // Under churn, remote adjacency is shard-partitioned; rank by the degree
    // hints the link handshakes announced (exact when the overlay is static).
    const size_t da = engine.NeighborDegree(node, a);
    const size_t db = engine.NeighborDegree(node, b);
    if (da != db) return da > db;
    return a < b;  // deterministic tie-break
  });
  if (rest.size() > params_.fallback_fanout) rest.resize(params_.fallback_fanout);
  return rest;
}

void LocawareProtocol::AddToIndex(Engine& engine, NodeState& state, FileId file,
                                  std::span<const KeywordId> sorted_keywords,
                                  PeerId provider, LocId provider_loc) {
  LOCAWARE_CHECK(state.ri != nullptr);
  const auto outcome = state.ri->AddProvider(
      file, sorted_keywords, cache::ProviderEntry{provider, provider_loc, 0},
      engine.Now());
  engine.WakeMaintenance(state.id);
  // Keep the counting filter consistent: one Insert per file arrival,
  // one Remove per file eviction (§4.2: "built incrementally as new
  // filenames are inserted in RI and existing ones discarded").
  if (state.keyword_filter != nullptr) {
    const catalog::FileCatalog& catalog = engine.catalog();
    if (outcome.file_inserted) {
      for (KeywordId kw : sorted_keywords) {
        state.keyword_filter->Insert(catalog.KeywordBloomHash(kw));
      }
    }
    for (const auto& evicted : outcome.evicted) {
      for (KeywordId kw : evicted.keywords) {
        state.keyword_filter->Remove(catalog.KeywordBloomHash(kw));
      }
    }
  }
}

void LocawareProtocol::ObserveResponse(Engine& engine, PeerId node,
                                       const overlay::ResponseMessage& response) {
  NodeState& state = engine.node(node);
  if (state.ri == nullptr) return;
  const catalog::FileCatalog& catalog = engine.catalog();
  for (const overlay::ResponseRecord& record : response.records) {
    const std::vector<KeywordId>& kws = catalog.sorted_keywords(record.file);
    if (GroupOfSetFnv(catalog.FileSetFnv(record.file), params_.num_groups) !=
        state.gid) {
      continue;
    }
    // Cache every provider the record carries. Iterate in reverse so the
    // record's freshest provider ends up most recent in our index.
    for (auto it = record.providers.rbegin(); it != record.providers.rend(); ++it) {
      AddToIndex(engine, state, record.file, kws, it->peer, it->loc_id);
    }
    // Leverage natural replication: the requester is about to hold a copy
    // ("the query response qrf holds the information about peer D as well as
    // peer A to be considered as a new provider", §4.1.2).
    if (params_.requester_becomes_provider && response.origin != node) {
      AddToIndex(engine, state, record.file, kws, response.origin,
                 response.origin_loc);
    }
  }
}

overlay::RecordVec LocawareProtocol::AnswerFromIndex(
    Engine& engine, PeerId node, const overlay::QueryMessage& query) {
  NodeState& state = engine.node(node);
  if (state.ri == nullptr) return {};

  overlay::RecordVec records;
  for (const cache::ResponseIndex::Hit& hit :
       state.ri->LookupByKeywords(query.keywords, engine.Now())) {
    overlay::ResponseRecord record;
    record.file = hit.file;
    record.from_index = true;
    // Providers in the requester's locality first, then the freshest others,
    // "to guarantee that E will find an available copy of f with minimum
    // bandwidth requirements" (§4.1.2).
    for (const cache::ProviderEntry& p : hit.providers) {
      if (record.providers.size() >= params_.max_response_providers) break;
      if (p.loc_id == query.origin_loc) {
        record.providers.push_back(overlay::ProviderInfo{p.provider, p.loc_id});
      }
    }
    for (const cache::ProviderEntry& p : hit.providers) {
      if (record.providers.size() >= params_.max_response_providers) break;
      if (p.loc_id == query.origin_loc) continue;  // already added
      record.providers.push_back(overlay::ProviderInfo{p.provider, p.loc_id});
    }
    records.push_back(std::move(record));
  }

  // Record the requester as a new provider of each answered file (Fig. 1:
  // "Peer B then adds in its RI the entry (E, 1)").
  if (params_.requester_becomes_provider && query.origin != node) {
    for (const overlay::ResponseRecord& record : records) {
      AddToIndex(engine, state, record.file, state.ri->KeywordsOf(record.file),
                 query.origin, query.origin_loc);
    }
  }
  return records;
}

void LocawareProtocol::OnMaintenanceTick(Engine& engine, PeerId node) {
  NodeState& state = engine.node(node);
  LOCAWARE_CHECK(state.ri != nullptr && state.keyword_filter != nullptr &&
                 state.advertised_filter != nullptr);

  // Index expiry, mirrored into the counting filter.
  const catalog::FileCatalog& catalog = engine.catalog();
  for (const auto& evicted : state.ri->ExpireStale(engine.Now())) {
    for (KeywordId kw : evicted.keywords) {
      state.keyword_filter->Remove(catalog.KeywordBloomHash(kw));
    }
  }

  // Gossip: transmit only the changed bit positions (§4.2 footnote 1).
  const bloom::BloomFilter& current = state.keyword_filter->projection();
  const bloom::BloomDelta delta =
      bloom::ComputeDelta(*state.advertised_filter, current);
  if (delta.empty()) return;

  overlay::BloomUpdateMessage update;
  update.sender = node;
  update.filter_bits = static_cast<uint32_t>(current.num_bits());
  update.toggled_positions = delta.positions;
  for (PeerId nb : engine.graph().Neighbors(node)) {
    engine.SendBloomUpdate(node, nb, update);
  }
  *state.advertised_filter = current;
}

bool LocawareProtocol::MaintenanceIdle(const NodeState& node) const {
  return Protocol::MaintenanceIdle(node) &&
         node.keyword_filter->projection() == *node.advertised_filter;
}

void LocawareProtocol::OnBloomUpdate(Engine& engine, PeerId node,
                                     const overlay::BloomUpdateMessage& update) {
  NodeState& state = engine.node(node);
  auto [it, inserted] = state.neighbor_filters.try_emplace(
      update.sender, params_.bloom_bits, params_.bloom_hashes);
  // A full-state bootstrap replaces the copy outright (toggling into a stale
  // copy would corrupt it); clearing first makes the apply absolute.
  if (update.full_state && !inserted) it->second.Clear();
  const Status st =
      bloom::ApplyDelta(update.filter_bits, update.toggled_positions, &it->second);
  if (!st.ok()) {
    // A malformed or shape-mismatched update: drop our copy rather than keep
    // a corrupt view (false negatives would break routing guarantees).
    state.neighbor_filters.erase(it);
  }
}

void LocawareProtocol::OnNeighborUp(Engine& engine, PeerId node,
                                    const overlay::LinkAnnounce& peer) {
  NodeState& state = engine.node(node);
  if (!peer.filter.has_value()) return;  // probe direction: filter comes later
  // Accept direction: the acceptor snapshotted its advertised filter with us
  // already in its adjacency, so its future deltas apply cleanly to this
  // copy.
  state.neighbor_filters.insert_or_assign(peer.peer, *peer.filter);
  // Push our side as a full-state bootstrap (delta-encoded ones). A plain
  // snapshot in the probe could desync: a maintenance tick firing during the
  // two-hop handshake would gossip a delta the acceptor never receives. The
  // full-state flag makes the copy absolute, and from this instant the
  // acceptor is in our adjacency, so every later delta reaches it.
  LOCAWARE_CHECK(state.advertised_filter != nullptr);
  overlay::BloomUpdateMessage bootstrap;
  bootstrap.sender = node;
  bootstrap.filter_bits = static_cast<uint32_t>(state.advertised_filter->num_bits());
  bootstrap.toggled_positions = state.advertised_filter->DiffPositions(
      bloom::BloomFilter(params_.bloom_bits, params_.bloom_hashes));
  bootstrap.full_state = true;
  engine.SendBloomUpdate(node, peer.peer, std::move(bootstrap));
}

void LocawareProtocol::OnPeerDeparted(Engine& engine, PeerId node, PeerId departed) {
  NodeState& state = engine.node(node);
  state.neighbor_filters.erase(departed);
  if (state.ri == nullptr) return;
  const catalog::FileCatalog& catalog = engine.catalog();
  for (const auto& evicted : state.ri->RemoveProvider(departed)) {
    for (KeywordId kw : evicted.keywords) {
      state.keyword_filter->Remove(catalog.KeywordBloomHash(kw));
    }
  }
}

}  // namespace locaware::core
