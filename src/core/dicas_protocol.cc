#include "core/dicas_protocol.h"

#include <algorithm>

#include "core/engine.h"
#include "core/group_hash.h"

namespace locaware::core {

GroupVec DicasProtocol::QueryGroups(
    Engine& /*engine*/, const overlay::QueryMessage& query) const {
  return {GroupOfSetFnv(query.kw_set_fnv, params_.num_groups)};
}

GroupVec DicasProtocol::CacheGroups(
    Engine& engine, const overlay::ResponseMessage& /*response*/,
    FileId file) const {
  return {GroupOfSetFnv(engine.catalog().FileSetFnv(file), params_.num_groups)};
}

PeerVec DicasProtocol::ForwardTargets(Engine& engine, PeerId node,
                                      const overlay::QueryMessage& query,
                                      PeerId from) {
  const GroupVec groups = QueryGroups(engine, query);
  PeerVec matching;
  PeerVec others;
  for (PeerId nb : engine.graph().Neighbors(node)) {
    if (nb == from) continue;
    const GroupId g = engine.gid_of(nb);
    if (std::find(groups.begin(), groups.end(), g) != groups.end()) {
      matching.push_back(nb);
    } else {
      others.push_back(nb);
    }
  }
  if (!matching.empty()) return matching;
  // No group member among neighbors: hand the query to random neighbors so it
  // keeps moving toward the group. The draw is keyed by (query, node) — a
  // node forwards a given query at most once (GUID dedup), so the key is
  // unique, and the pick stays identical across shard counts.
  if (others.empty()) return {};
  Rng fallback_rng = engine.DecisionRng(Engine::kDecisionFallback, query.qid, node);
  fallback_rng.Shuffle(&others);
  if (others.size() > params_.fallback_fanout) others.resize(params_.fallback_fanout);
  return others;
}

void DicasProtocol::ObserveResponse(Engine& engine, PeerId node,
                                    const overlay::ResponseMessage& response) {
  NodeState& state = engine.node(node);
  if (state.ri == nullptr) return;
  for (const overlay::ResponseRecord& record : response.records) {
    if (record.providers.empty()) continue;
    const GroupVec groups = CacheGroups(engine, response, record.file);
    if (std::find(groups.begin(), groups.end(), state.gid) == groups.end()) continue;
    // Dicas caches the response as a single index: file -> the provider
    // that answered (the record's freshest provider).
    const overlay::ProviderInfo& p = record.providers.front();
    state.ri->AddProvider(record.file, engine.catalog().sorted_keywords(record.file),
                          cache::ProviderEntry{p.peer, p.loc_id, 0},
                          engine.Now());
    engine.WakeMaintenance(node);
  }
}

bool DicasProtocol::HitVisible(Engine& engine, const NodeState& /*node*/,
                               FileId file, const overlay::QueryMessage& query) const {
  // Filename search: the query must name every keyword of the cached
  // filename (LookupByKeywords already guaranteed the other direction).
  return ContainsAllIds(query.keywords, engine.catalog().sorted_keywords(file));
}

overlay::RecordVec DicasProtocol::AnswerFromIndex(
    Engine& engine, PeerId node, const overlay::QueryMessage& query) {
  NodeState& state = engine.node(node);
  if (state.ri == nullptr) return {};
  overlay::RecordVec records;
  for (const cache::ResponseIndex::Hit& hit :
       state.ri->LookupByKeywords(query.keywords, engine.Now())) {
    if (!HitVisible(engine, state, hit.file, query)) continue;
    overlay::ResponseRecord record;
    record.file = hit.file;
    record.from_index = true;
    const size_t limit = std::min(hit.providers.size(), params_.max_response_providers);
    for (size_t i = 0; i < limit; ++i) {
      record.providers.push_back(
          overlay::ProviderInfo{hit.providers[i].provider, hit.providers[i].loc_id});
    }
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace locaware::core
