// White-box unit tests of the protocol hooks. Instead of observing whole
// simulations, these build a small engine, hand-craft node state (caches,
// Bloom filters, group ids) and call ForwardTargets / AnswerFromIndex /
// ObserveResponse directly, asserting the paper's routing and caching rules
// decision by decision. All symbols come from the engine's own catalog — the
// id plane has no notion of out-of-catalog strings.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/experiment.h"
#include "core/group_hash.h"

namespace locaware::core {
namespace {

/// A deterministic mini-network: no queries are run; tests poke state.
std::unique_ptr<Engine> MakeEngine(ProtocolKind kind, uint64_t seed = 5,
                                   void (*tweak)(ExperimentConfig*) = nullptr) {
  ExperimentConfig cfg = MakePaperConfig(kind, /*num_queries=*/1, seed);
  cfg.num_peers = 60;
  cfg.underlay.num_routers = 15;
  cfg.catalog.num_files = 80;
  cfg.catalog.keyword_pool_size = 240;
  if (tweak) tweak(&cfg);
  return std::move(Engine::Create(cfg)).ValueOrDie();
}

overlay::QueryMessage MakeQuery(Engine& e, PeerId origin,
                                std::vector<KeywordId> keywords) {
  overlay::QueryMessage q;
  q.qid = 777;
  q.origin = origin;
  q.origin_loc = e.loc_of(origin);
  q.route_kw = keywords.front();  // "first sampled" = first listed
  std::sort(keywords.begin(), keywords.end());
  q.kw_set_fnv = e.catalog().CanonicalSetFnv(keywords);
  q.keywords = std::move(keywords);
  q.ttl = 7;
  return q;
}

/// Picks a peer with at least `min_neighbors` neighbors.
PeerId PeerWithNeighbors(Engine& e, size_t min_neighbors) {
  for (PeerId p = 0; p < e.num_peers(); ++p) {
    if (e.graph().Degree(p) >= min_neighbors) return p;
  }
  ADD_FAILURE() << "no peer with " << min_neighbors << " neighbors";
  return 0;
}

/// Group of file `f` under the engine's M.
GroupId FileGroup(Engine& e, FileId f) {
  return GroupOfSetFnv(e.catalog().FileSetFnv(f), e.params().num_groups);
}

/// Group of a single keyword under the engine's M.
GroupId KeywordGroup(Engine& e, KeywordId kw) {
  return GroupOfKeywordFnv(e.catalog().KeywordFnv(kw), e.params().num_groups);
}

/// One sample of a peer's maintenance state while its only cached response
/// lives and expires.
struct LifecycleSample {
  sim::SimTime t = 0;
  bool quiet = false;
  size_t files = 0;          ///< response-index files at the peer
  uint64_t bloom_msgs = 0;   ///< Bloom updates charged so far (1 shard)
  size_t neighbors_see = 0;  ///< neighbors whose filter copy has the probe
};

/// Runs the engine's own simulator, with no workload, through `resp`
/// landing at `node` at t0 and then past its index expiry, sampling every
/// quarter maintenance interval until t0 + ttl + 2 intervals. `*woke` is
/// whether the insert cleared the quiet byte, read inside the event. With a
/// `probe`, samples count the neighbors whose filter copy of `node` has it.
std::vector<LifecycleSample> RunIndexLifecycle(Engine& e, PeerId node,
                                               const overlay::ResponseMessage& resp,
                                               sim::SimTime t0, bool* woke,
                                               const KeyHash128* probe = nullptr) {
  sim::ShardedSimulator& sim = e.simulator();
  sim.ScheduleAt(e.shard_of(node), /*src=*/0, t0, [&e, node, &resp, woke] {
    e.protocol().ObserveResponse(e, node, resp);
    *woke = !e.maintenance_quiet(node);
  });
  const sim::SimTime interval = e.params().maintenance_interval;
  const sim::SimTime end = t0 + e.params().ri.entry_ttl + 2 * interval;
  std::vector<LifecycleSample> samples;
  for (sim::SimTime t = t0 + interval / 4; t <= end; t += interval / 4) {
    sim.Run(t);
    LifecycleSample sample;
    sample.t = t;
    sample.quiet = e.maintenance_quiet(node);
    sample.files = e.node(node).ri->num_filenames();
    sample.bloom_msgs = e.CollectorAt(node).bloom_update_msgs();
    for (PeerId nb : e.graph().Neighbors(node)) {
      const auto& copies = e.node(nb).neighbor_filters;
      const auto it = copies.find(node);
      if (probe != nullptr && it != copies.end() && it->second.MayContain(*probe)) {
        ++sample.neighbors_see;
      }
    }
    samples.push_back(sample);
  }
  return samples;
}

/// A response for `file` from provider 8, requested by peer 9.
overlay::ResponseMessage ResponseFor(Engine& e, FileId file) {
  overlay::ResponseMessage resp;
  resp.qid = 1;
  resp.responder = 8;
  resp.origin = 9;
  resp.origin_loc = e.loc_of(9);
  resp.query_keywords = e.catalog().sorted_keywords(file);
  overlay::ResponseRecord rec;
  rec.file = file;
  rec.providers = {{8, e.loc_of(8)}};
  resp.records.push_back(rec);
  return resp;
}

/// Index of the first sample whose index is empty again (samples.size() if
/// none), after checking that every earlier sample is busy with a cached file.
size_t FirstEmptySample(const std::vector<LifecycleSample>& samples) {
  size_t k = 0;
  while (k < samples.size() && samples[k].files > 0) {
    EXPECT_FALSE(samples[k].quiet) << "quiet with a cached file at t=" << samples[k].t;
    ++k;
  }
  return k;
}

void ShortTtl(ExperimentConfig* cfg) { cfg->params.ri.entry_ttl = 25 * sim::kSecond; }

// ---------------------------------------------------------------- Flooding

TEST(FloodingBehaviorTest, ForwardsToAllNeighborsExceptSender) {
  auto e = MakeEngine(ProtocolKind::kFlooding);
  const PeerId node = PeerWithNeighbors(*e, 2);
  const PeerId from = e->graph().Neighbors(node)[0];
  const auto q = MakeQuery(*e, 9, {e->catalog().keywords(0)[0]});

  const auto targets = e->protocol().ForwardTargets(*e, node, q, from);
  std::set<PeerId> expected(e->graph().Neighbors(node).begin(),
                            e->graph().Neighbors(node).end());
  expected.erase(from);
  EXPECT_EQ(std::set<PeerId>(targets.begin(), targets.end()), expected);
}

TEST(FloodingBehaviorTest, OriginForwardsEverywhere) {
  auto e = MakeEngine(ProtocolKind::kFlooding);
  const PeerId node = PeerWithNeighbors(*e, 2);
  const auto q = MakeQuery(*e, node, {e->catalog().keywords(0)[0]});
  const auto targets = e->protocol().ForwardTargets(*e, node, q, kInvalidPeer);
  EXPECT_EQ(targets.size(), e->graph().Degree(node));
}

TEST(FloodingBehaviorTest, NeverAnswersFromIndexAndKeepsForwarding) {
  auto e = MakeEngine(ProtocolKind::kFlooding);
  const auto q = MakeQuery(*e, 1, {e->catalog().keywords(0)[0]});
  EXPECT_TRUE(e->protocol().AnswerFromIndex(*e, 2, q).empty());
  EXPECT_TRUE(e->protocol().ForwardAfterHit());
}

// ------------------------------------------------------------------- Dicas

TEST(DicasBehaviorTest, PrefersAllGroupMatchingNeighbors) {
  auto e = MakeEngine(ProtocolKind::kDicas);
  const PeerId node = PeerWithNeighbors(*e, 3);
  const auto q =
      MakeQuery(*e, 9, {e->catalog().keywords(0)[0], e->catalog().keywords(0)[1]});
  const GroupId g = GroupOfSetFnv(q.kw_set_fnv, e->params().num_groups);

  // Force two neighbors into the query's group, the rest out of it.
  const auto& neighbors = e->graph().Neighbors(node);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    e->node(neighbors[i]).gid =
        (i < 2) ? g : static_cast<GroupId>((g + 1) % e->params().num_groups);
  }

  const auto targets = e->protocol().ForwardTargets(*e, node, q, kInvalidPeer);
  ASSERT_EQ(targets.size(), 2u);
  for (PeerId t : targets) EXPECT_EQ(e->node(t).gid, g);
}

TEST(DicasBehaviorTest, FallsBackToBoundedRandomNeighbors) {
  auto e = MakeEngine(ProtocolKind::kDicas);
  const PeerId node = PeerWithNeighbors(*e, 3);
  const auto q =
      MakeQuery(*e, 9, {e->catalog().keywords(0)[0], e->catalog().keywords(0)[1]});
  const GroupId g = GroupOfSetFnv(q.kw_set_fnv, e->params().num_groups);
  for (PeerId nb : e->graph().Neighbors(node)) {
    e->node(nb).gid = static_cast<GroupId>((g + 1) % e->params().num_groups);
  }
  const auto targets = e->protocol().ForwardTargets(*e, node, q, kInvalidPeer);
  EXPECT_EQ(targets.size(), e->params().fallback_fanout);
  for (PeerId t : targets) {
    EXPECT_TRUE(e->graph().AreNeighbors(node, t));
  }
}

TEST(DicasBehaviorTest, SenderIsNeverATarget) {
  auto e = MakeEngine(ProtocolKind::kDicas);
  const PeerId node = PeerWithNeighbors(*e, 2);
  const auto q = MakeQuery(*e, 9, {e->catalog().keywords(0)[0]});
  for (PeerId from : e->graph().Neighbors(node)) {
    const auto targets = e->protocol().ForwardTargets(*e, node, q, from);
    EXPECT_EQ(std::find(targets.begin(), targets.end(), from), targets.end());
  }
}

TEST(DicasBehaviorTest, AnswersOnlyFullFilenameQueries) {
  auto e = MakeEngine(ProtocolKind::kDicas);
  NodeState& n = e->node(3);
  const FileId file = 0;
  const auto& kws = e->catalog().sorted_keywords(file);
  ASSERT_EQ(kws.size(), 3u);
  n.ri->AddProvider(file, kws, cache::ProviderEntry{7, 2, 0}, 0);

  // Partial keyword query: invisible ("designed for filename search").
  auto q_partial = MakeQuery(*e, 9, {kws[0]});
  EXPECT_TRUE(e->protocol().AnswerFromIndex(*e, 3, q_partial).empty());
  auto q_two = MakeQuery(*e, 9, {kws[1], kws[0]});
  EXPECT_TRUE(e->protocol().AnswerFromIndex(*e, 3, q_two).empty());

  // Full keyword set (any order): answered with the single provider.
  auto q_full = MakeQuery(*e, 9, {kws[2], kws[0], kws[1]});
  const auto records = e->protocol().AnswerFromIndex(*e, 3, q_full);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].file, file);
  EXPECT_TRUE(records[0].from_index);
  ASSERT_EQ(records[0].providers.size(), 1u);
  EXPECT_EQ(records[0].providers[0].peer, 7u);
}

TEST(DicasBehaviorTest, CachesOnlyAtMatchingGidWithSingleProvider) {
  auto e = MakeEngine(ProtocolKind::kDicas);
  const FileId file = 0;
  const GroupId g = FileGroup(*e, file);

  overlay::ResponseMessage resp;
  resp.qid = 1;
  resp.responder = 8;
  resp.origin = 9;
  resp.origin_loc = 3;
  resp.query_keywords = e->catalog().sorted_keywords(file);
  overlay::ResponseRecord rec;
  rec.file = file;
  rec.providers = {{8, 5}, {4, 1}};
  resp.records.push_back(rec);

  NodeState& matching = e->node(10);
  matching.gid = g;
  NodeState& other = e->node(11);
  other.gid = static_cast<GroupId>((g + 1) % e->params().num_groups);

  e->protocol().ObserveResponse(*e, 10, resp);
  e->protocol().ObserveResponse(*e, 11, resp);

  EXPECT_TRUE(matching.ri->Contains(file));
  EXPECT_FALSE(other.ri->Contains(file));
  // Single-provider index: only the freshest provider is kept.
  auto hit = matching.ri->LookupFile(file, 1);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->providers.size(), 1u);
  EXPECT_EQ(hit->providers[0].provider, 8u);
}

TEST(DicasBehaviorTest, QuietByteFollowsIndexLifecycle) {
  // The base predicate: quiet exactly while the index is empty.
  auto e = MakeEngine(ProtocolKind::kDicas, 5, ShortTtl);
  const PeerId node = 10;
  const FileId file = 0;
  e->node(node).gid = FileGroup(*e, file);
  EXPECT_TRUE(e->maintenance_quiet(node));

  const auto resp = ResponseFor(*e, file);
  const sim::SimTime t0 = 3 * sim::kSecond + 7;
  bool woke = false;
  const auto samples = RunIndexLifecycle(*e, node, resp, t0, &woke);
  EXPECT_TRUE(woke);
  const size_t k = FirstEmptySample(samples);
  ASSERT_LT(k, samples.size()) << "the cached file never expired";
  EXPECT_GT(samples[k].t, t0 + e->params().ri.entry_ttl);
  for (size_t i = k; i < samples.size(); ++i) {
    EXPECT_TRUE(samples[i].quiet) << "t=" << samples[i].t;
    EXPECT_EQ(samples[i].files, 0u);
  }
}

// -------------------------------------------------------------- Dicas-Keys

TEST(DicasKeysBehaviorTest, RoutesByFirstKeywordGroup) {
  auto e = MakeEngine(ProtocolKind::kDicasKeys);
  const PeerId node = PeerWithNeighbors(*e, 3);
  const auto q =
      MakeQuery(*e, 9, {e->catalog().keywords(0)[0], e->catalog().keywords(0)[1]});
  // The routed keyword is the message's designated route_kw.
  const GroupId g_first = KeywordGroup(*e, q.route_kw);

  const auto& neighbors = e->graph().Neighbors(node);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    e->node(neighbors[i]).gid =
        (i == 0) ? g_first
                 : static_cast<GroupId>((g_first + 1) % e->params().num_groups);
  }
  const auto targets = e->protocol().ForwardTargets(*e, node, q, kInvalidPeer);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], neighbors[0]);
}

TEST(DicasKeysBehaviorTest, CachesUnderQueryKeywordGroups) {
  auto e = MakeEngine(ProtocolKind::kDicasKeys);
  const FileId file = 0;
  const KeywordId routed_kw = e->catalog().sorted_keywords(file)[1];

  overlay::ResponseMessage resp;
  resp.qid = 1;
  resp.responder = 8;
  resp.origin = 9;
  resp.query_keywords = {routed_kw};  // the query that produced this response
  overlay::ResponseRecord rec;
  rec.file = file;
  rec.providers = {{8, 5}};
  resp.records.push_back(rec);

  const GroupId g_kw = KeywordGroup(*e, routed_kw);
  const GroupId g_other = static_cast<GroupId>((g_kw + 1) % e->params().num_groups);

  e->node(20).gid = g_kw;
  e->node(21).gid = g_other;
  e->protocol().ObserveResponse(*e, 20, resp);
  e->protocol().ObserveResponse(*e, 21, resp);

  EXPECT_TRUE(e->node(20).ri->Contains(file));
  EXPECT_FALSE(e->node(21).ri->Contains(file));
}

TEST(DicasKeysBehaviorTest, HitVisibleOnlyWhenQueryPointsAtThisGroup) {
  auto e = MakeEngine(ProtocolKind::kDicasKeys);
  NodeState& n = e->node(5);
  const FileId file = 0;
  const auto& kws = e->catalog().sorted_keywords(file);
  ASSERT_EQ(kws.size(), 3u);
  n.ri->AddProvider(file, kws, cache::ProviderEntry{7, 2, 0}, 0);
  n.gid = KeywordGroup(*e, kws[1]);

  // Query containing kws[1]: its hash points at this node's group.
  auto q_visible = MakeQuery(*e, 9, {kws[1], kws[0]});
  EXPECT_FALSE(e->protocol().AnswerFromIndex(*e, 5, q_visible).empty());

  // Query with only keywords whose groups differ: the entry is unreachable
  // through the keyword-hash index even though the node has it.
  if (KeywordGroup(*e, kws[0]) != n.gid && KeywordGroup(*e, kws[2]) != n.gid) {
    auto q_invisible = MakeQuery(*e, 9, {kws[0], kws[2]});
    EXPECT_TRUE(e->protocol().AnswerFromIndex(*e, 5, q_invisible).empty());
  }
}

// ---------------------------------------------------------------- Locaware

TEST(LocawareBehaviorTest, BloomTierBeatsGidTier) {
  auto e = MakeEngine(ProtocolKind::kLocaware);
  const PeerId node = PeerWithNeighbors(*e, 3);
  const auto& neighbors = e->graph().Neighbors(node);
  const auto q =
      MakeQuery(*e, 9, {e->catalog().keywords(0)[0], e->catalog().keywords(0)[1]});

  // Neighbor 0's filter advertises both keywords (inserted by *string*, so
  // the precomputed-hash probe path is cross-checked); neighbor 1 matches by
  // gid.
  NodeState& n = e->node(node);
  bloom::BloomFilter match(e->params().bloom_bits, e->params().bloom_hashes);
  match.Insert(e->catalog().keyword(q.keywords[0]));
  match.Insert(e->catalog().keyword(q.keywords[1]));
  n.neighbor_filters.insert_or_assign(neighbors[0], match);
  e->node(neighbors[1]).gid = GroupOfSetFnv(q.kw_set_fnv, e->params().num_groups);

  const auto targets = e->protocol().ForwardTargets(*e, node, q, kInvalidPeer);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], neighbors[0]);
}

TEST(LocawareBehaviorTest, PartialBloomMatchDoesNotCount) {
  auto e = MakeEngine(ProtocolKind::kLocaware);
  const PeerId node = PeerWithNeighbors(*e, 2);
  const auto& neighbors = e->graph().Neighbors(node);
  const auto q =
      MakeQuery(*e, 9, {e->catalog().keywords(0)[0], e->catalog().keywords(0)[1]});

  NodeState& n = e->node(node);
  bloom::BloomFilter partial(e->params().bloom_bits, e->params().bloom_hashes);
  partial.Insert(e->catalog().keyword(q.keywords[0]));  // only one of the two
  n.neighbor_filters.insert_or_assign(neighbors[0], partial);
  // Keep every neighbor out of the query's gid so tier 2 is empty too.
  const GroupId g = GroupOfSetFnv(q.kw_set_fnv, e->params().num_groups);
  for (PeerId nb : neighbors) {
    e->node(nb).gid = static_cast<GroupId>((g + 1) % e->params().num_groups);
  }

  const auto targets = e->protocol().ForwardTargets(*e, node, q, kInvalidPeer);
  // Tier 3 (highest degree), not the partial-match neighbor specifically.
  ASSERT_FALSE(targets.empty());
  size_t best_degree = 0;
  for (PeerId nb : neighbors) best_degree = std::max(best_degree, e->graph().Degree(nb));
  EXPECT_EQ(e->graph().Degree(targets[0]), best_degree);
}

TEST(LocawareBehaviorTest, FallbackIsBoundedAndDegreeSorted) {
  auto e = MakeEngine(ProtocolKind::kLocaware);
  const PeerId node = PeerWithNeighbors(*e, 3);
  const auto q =
      MakeQuery(*e, 9, {e->catalog().keywords(7)[0], e->catalog().keywords(7)[1]});
  const GroupId g = GroupOfSetFnv(q.kw_set_fnv, e->params().num_groups);
  for (PeerId nb : e->graph().Neighbors(node)) {
    e->node(nb).gid = static_cast<GroupId>((g + 1) % e->params().num_groups);
  }
  const auto targets = e->protocol().ForwardTargets(*e, node, q, kInvalidPeer);
  ASSERT_EQ(targets.size(), e->params().fallback_fanout);
  EXPECT_GE(e->graph().Degree(targets[0]), e->graph().Degree(targets[1]));
}

TEST(LocawareBehaviorTest, AnswerPutsRequesterLocalityFirstAndCapsProviders) {
  auto e = MakeEngine(ProtocolKind::kLocaware);
  NodeState& n = e->node(3);
  const FileId file = 0;
  const auto& kws = e->catalog().sorted_keywords(file);
  const PeerId origin = 9;
  const LocId origin_loc = e->loc_of(origin);

  // Five providers, two in the requester's locality (inserted early, so they
  // are *not* the freshest).
  sim::SimTime t = 0;
  n.ri->AddProvider(file, kws, cache::ProviderEntry{30, origin_loc, 0}, ++t);
  n.ri->AddProvider(file, kws, cache::ProviderEntry{31, origin_loc, 0}, ++t);
  n.ri->AddProvider(file, kws,
                    cache::ProviderEntry{32, static_cast<LocId>(origin_loc + 1), 0},
                    ++t);
  n.ri->AddProvider(file, kws,
                    cache::ProviderEntry{33, static_cast<LocId>(origin_loc + 1), 0},
                    ++t);
  n.ri->AddProvider(file, kws,
                    cache::ProviderEntry{34, static_cast<LocId>(origin_loc + 2), 0},
                    ++t);

  auto q = MakeQuery(*e, origin, {kws[0], kws[2]});
  const auto records = e->protocol().AnswerFromIndex(*e, 3, q);
  ASSERT_EQ(records.size(), 1u);
  const auto& provs = records[0].providers;
  ASSERT_EQ(provs.size(), e->params().max_response_providers);  // capped at 3
  // locId matches first (most recent of them first), then the freshest other.
  EXPECT_EQ(provs[0].peer, 31u);
  EXPECT_EQ(provs[1].peer, 30u);
  EXPECT_EQ(provs[2].peer, 34u);  // freshest non-matching

  // The requester was recorded as a new provider ("adds the entry (E, 1)").
  auto hit = n.ri->LookupFile(file, t + 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->providers.front().provider, origin);
}

TEST(LocawareBehaviorTest, CachingKeepsBloomInSync) {
  auto e = MakeEngine(ProtocolKind::kLocaware);
  const FileId file = 0;
  const auto& kws = e->catalog().sorted_keywords(file);
  ASSERT_EQ(kws.size(), 3u);
  const GroupId g = FileGroup(*e, file);
  NodeState& n = e->node(12);
  n.gid = g;

  overlay::ResponseMessage resp;
  resp.qid = 1;
  resp.responder = 8;
  resp.origin = 9;
  resp.origin_loc = e->loc_of(9);
  resp.query_keywords = {kws[0]};
  overlay::ResponseRecord rec;
  rec.file = file;
  rec.providers = {{8, 5}};
  resp.records.push_back(rec);

  // Membership checks go through the *string* overloads: the engine inserts
  // via precomputed hashes, so agreement proves the two paths are identical.
  EXPECT_FALSE(n.keyword_filter->MayContain(e->catalog().keyword(kws[1])));
  e->protocol().ObserveResponse(*e, 12, resp);
  EXPECT_TRUE(n.ri->Contains(file));
  EXPECT_TRUE(n.keyword_filter->MayContain(e->catalog().keyword(kws[0])));
  EXPECT_TRUE(n.keyword_filter->MayContain(e->catalog().keyword(kws[1])));
  EXPECT_TRUE(n.keyword_filter->MayContain(e->catalog().keyword(kws[2])));
  // Both the responder and the origin became providers.
  auto hit = n.ri->LookupFile(file, 1);
  ASSERT_TRUE(hit.has_value());
  std::set<PeerId> providers;
  for (const auto& p : hit->providers) providers.insert(p.provider);
  EXPECT_TRUE(providers.contains(8u));
  EXPECT_TRUE(providers.contains(9u));
}

TEST(LocawareBehaviorTest, QuietByteFollowsIndexLifecycle) {
  auto e = MakeEngine(ProtocolKind::kLocaware, 5, ShortTtl);
  const PeerId node = PeerWithNeighbors(*e, 2);
  const size_t degree = e->graph().Degree(node);
  const FileId file = 0;
  const KeywordId kw = e->catalog().sorted_keywords(file)[0];
  const KeyHash128 kw_hash = e->catalog().KeywordBloomHash(kw);
  const sim::SimTime interval = e->params().maintenance_interval;
  NodeState& n = e->node(node);
  n.gid = FileGroup(*e, file);

  // 1. A fresh peer is quiet.
  EXPECT_TRUE(e->maintenance_quiet(node));
  const uint64_t msgs_before = e->CollectorAt(node).bloom_update_msgs();

  // 2. The insert (through AddToIndex) wakes it.
  const auto resp = ResponseFor(*e, file);
  const sim::SimTime t0 = 3 * sim::kSecond + 7;
  bool woke = false;
  const auto samples = RunIndexLifecycle(*e, node, resp, t0, &woke, &kw_hash);
  EXPECT_TRUE(woke);

  // 3. The first tick after the insert gossips the insert delta to every
  // neighbor, and the later busy ticks send nothing; the peer stays busy
  // while the file is cached.
  const size_t k = FirstEmptySample(samples);
  ASSERT_LT(k, samples.size()) << "the cached file never expired";
  size_t gossiped = 0;
  for (size_t i = 0; i < k; ++i) {
    if (samples[i].t >= t0 + interval) {
      EXPECT_EQ(samples[i].bloom_msgs, msgs_before + degree) << "t=" << samples[i].t;
    }
    if (samples[i].neighbors_see == degree) ++gossiped;
  }
  EXPECT_GT(gossiped, 0u) << "no sample saw the insert delta at every neighbor";

  // 4. The expiry tick empties the index and gossips the removal delta;
  // 5. only then is the peer quiet again, and its later ticks send nothing.
  EXPECT_GT(samples[k].t, t0 + e->params().ri.entry_ttl);
  for (size_t i = k; i < samples.size(); ++i) {
    EXPECT_TRUE(samples[i].quiet) << "t=" << samples[i].t;
    EXPECT_EQ(samples[i].bloom_msgs, msgs_before + 2 * degree) << "t=" << samples[i].t;
  }
  EXPECT_EQ(*n.advertised_filter, n.keyword_filter->projection());
  EXPECT_FALSE(n.advertised_filter->MayContain(kw_hash));
  EXPECT_EQ(samples.back().neighbors_see, 0u);
}

TEST(LocawareBehaviorTest, StopsForwardingAfterHit) {
  auto e = MakeEngine(ProtocolKind::kLocaware);
  EXPECT_FALSE(e->protocol().ForwardAfterHit());
}

TEST(LocawareBehaviorTest, LocAwareRoutingPrefersOriginLocality) {
  auto e = MakeEngine(ProtocolKind::kLocaware, 5, [](ExperimentConfig* cfg) {
    cfg->params.loc_aware_routing = true;
  });
  const PeerId node = PeerWithNeighbors(*e, 3);
  const auto& neighbors = e->graph().Neighbors(node);
  const PeerId origin = 9;
  auto q =
      MakeQuery(*e, origin, {e->catalog().keywords(13)[0], e->catalog().keywords(13)[2]});

  // Tier 2 setup: two gid-matching neighbors, one in the origin's locality.
  const GroupId g = GroupOfSetFnv(q.kw_set_fnv, e->params().num_groups);
  for (PeerId nb : neighbors) {
    e->node(nb).gid = static_cast<GroupId>((g + 1) % e->params().num_groups);
    e->node(nb).loc_id = static_cast<LocId>(q.origin_loc + 1);
  }
  e->node(neighbors[0]).gid = g;
  e->node(neighbors[1]).gid = g;
  e->node(neighbors[1]).loc_id = q.origin_loc;

  const auto targets = e->protocol().ForwardTargets(*e, node, q, kInvalidPeer);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], neighbors[1]);  // locality wins within the tier
}

}  // namespace
}  // namespace locaware::core
