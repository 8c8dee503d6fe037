#include "core/engine.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "core/experiment.h"
#include "core/group_hash.h"

namespace locaware::core {
namespace {

/// A scaled-down paper setup that runs in well under a second: 150 peers,
/// 300 files over a 900-keyword pool, 200 queries at a boosted rate.
ExperimentConfig TinyConfig(ProtocolKind kind, uint64_t seed = 7) {
  ExperimentConfig cfg = MakePaperConfig(kind, /*num_queries=*/200, seed);
  cfg.num_peers = 150;
  cfg.underlay.num_routers = 40;
  cfg.catalog.num_files = 300;
  cfg.catalog.keyword_pool_size = 900;
  cfg.workload.query_rate_per_peer_s = 0.01;  // compress simulated time
  return cfg;
}

TEST(EngineTest, CreateRejectsZeroLandmarks) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kLocaware);
  cfg.num_landmarks = 0;
  EXPECT_FALSE(Engine::Create(cfg).ok());
}

TEST(EngineTest, CreateRejectsZeroGroups) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kDicas);
  cfg.params.num_groups = 0;
  EXPECT_FALSE(Engine::Create(cfg).ok());
}

TEST(EngineTest, CreateRejectsZeroBloomBits) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kHybrid);
  cfg.params.bloom_bits = 0;
  auto created = Engine::Create(cfg);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, CreateRejectsZeroBloomHashes) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kHybrid);
  cfg.params.bloom_hashes = 0;
  auto created = Engine::Create(cfg);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, CreateRejectsMoreShardsThanPeers) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kHybrid);
  cfg.scheduler.shards = static_cast<uint32_t>(cfg.num_peers) + 1;
  auto created = Engine::Create(cfg);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  cfg.scheduler.shards = static_cast<uint32_t>(cfg.num_peers);
  EXPECT_TRUE(Engine::Create(cfg).ok());
}

TEST(EngineTest, NodesInitializedPerProtocol) {
  // What each protocol allocates per peer, and whether a static run ticks.
  struct Expected {
    ProtocolKind kind;
    bool ri, filters, dht, ticks;
  };
  const Expected kTable[] = {
      {ProtocolKind::kFlooding, false, false, false, false},
      {ProtocolKind::kDicas, true, false, false, true},
      {ProtocolKind::kDicasKeys, true, false, false, true},
      {ProtocolKind::kLocaware, true, true, false, true},
      {ProtocolKind::kDht, false, false, true, true},
      {ProtocolKind::kHybrid, true, true, true, true},
  };
  for (ProtocolKind kind : AllProtocolKinds()) {
    const auto is_kind = [&](const Expected& row) { return row.kind == kind; };
    const Expected* want = std::find_if(std::begin(kTable), std::end(kTable), is_kind);
    ASSERT_NE(want, std::end(kTable)) << ProtocolKindName(kind) << " has no row";
    auto e = std::move(Engine::Create(TinyConfig(kind))).ValueOrDie();
    for (PeerId p = 0; p < e->num_peers(); ++p) {
      const NodeState& n = std::as_const(*e).node(p);
      ASSERT_EQ(n.ri != nullptr, want->ri) << ProtocolKindName(kind) << " peer " << p;
      ASSERT_EQ(n.keyword_filter != nullptr, want->filters) << ProtocolKindName(kind);
      ASSERT_EQ(n.advertised_filter != nullptr, want->filters) << ProtocolKindName(kind);
      ASSERT_EQ(n.dht != nullptr, want->dht) << ProtocolKindName(kind);
    }
    // Before Run() the only queued events are the maintenance ticks' first
    // offsets, one per peer.
    EXPECT_EQ(e->simulator().pending_count(), want->ticks ? e->num_peers() : 0u)
        << ProtocolKindName(kind);
  }
}

TEST(EngineTest, InitialStateMatchesConfig) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kLocaware))).ValueOrDie();
  EXPECT_EQ(e->num_peers(), 150u);
  EXPECT_EQ(e->underlay().num_peers(), 150u);
  EXPECT_EQ(e->graph().num_peers(), 150u);
  EXPECT_EQ(e->catalog().num_files(), 300u);
  EXPECT_EQ(e->workload().queries().size(), 200u);
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    EXPECT_EQ(e->node(p).file_store.size(), 3u);
    EXPECT_LT(e->node(p).gid, 4u);
    EXPECT_LT(e->node(p).loc_id, 24u);
  }
}

TEST(EngineTest, RunRecordsEveryQuery) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kFlooding))).ValueOrDie();
  e->Run();
  EXPECT_EQ(e->metrics().records().size(), 200u);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run = [](ProtocolKind kind) {
    auto e = std::move(Engine::Create(TinyConfig(kind, 99))).ValueOrDie();
    e->Run();
    return metrics::Summarize(e->metrics());
  };
  for (ProtocolKind kind : {ProtocolKind::kFlooding, ProtocolKind::kDicas,
                            ProtocolKind::kLocaware}) {
    const auto a = run(kind);
    const auto b = run(kind);
    EXPECT_EQ(a.success_rate, b.success_rate);
    EXPECT_EQ(a.msgs_per_query, b.msgs_per_query);
    EXPECT_EQ(a.avg_download_ms, b.avg_download_ms);
    EXPECT_EQ(a.bloom_update_bytes, b.bloom_update_bytes);
  }
}

TEST(EngineTest, FloodingCoversTheNetwork) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kFlooding))).ValueOrDie();
  e->Run();
  const auto summary = metrics::Summarize(e->metrics());
  // TTL 7 on a degree-3 graph of 150 peers: the flood reaches most links, so
  // messages per query must be on the order of the link count.
  EXPECT_GT(summary.msgs_per_query, 100.0);
  EXPECT_GT(summary.success_rate, 0.5);
  EXPECT_EQ(summary.bloom_update_msgs, 0u);  // flooding has no maintenance
}

TEST(EngineTest, DicasCachingRespectsGroupCondition) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kDicas))).ValueOrDie();
  e->Run();
  // Invariant (eq. 1): every file in RI_n satisfies hash(f) mod M = Gid_n.
  size_t cached_total = 0;
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    const NodeState& n = e->node(p);
    for (FileId f : n.ri->Files()) {
      EXPECT_EQ(GroupOfSetFnv(e->catalog().FileSetFnv(f), e->params().num_groups),
                n.gid)
          << "peer " << p << " cached " << e->catalog().filename(f)
          << " outside its group";
      ++cached_total;
    }
  }
  EXPECT_GT(cached_total, 0u) << "Dicas cached nothing at all";
}

TEST(EngineTest, DicasKeysCachingUsesKeywordGroups) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kDicasKeys))).ValueOrDie();
  e->Run();
  size_t cached_total = 0;
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    const NodeState& n = e->node(p);
    for (FileId f : n.ri->Files()) {
      const auto groups = KeywordGroupsOfIds(
          n.ri->KeywordsOf(f),
          [&](KeywordId kw) { return e->catalog().KeywordFnv(kw); },
          e->params().num_groups);
      EXPECT_NE(std::find(groups.begin(), groups.end(), n.gid), groups.end())
          << "peer " << p << " cached " << e->catalog().filename(f)
          << " outside every keyword group";
      ++cached_total;
    }
  }
  EXPECT_GT(cached_total, 0u);
}

TEST(EngineTest, DicasIndexesHoldSingleProvider) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kDicas))).ValueOrDie();
  e->Run();
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    const NodeState& n = e->node(p);
    EXPECT_LE(n.ri->TotalProviderCount(), n.ri->num_filenames());
  }
}

TEST(EngineTest, LocawareIndexesHoldMultipleProviders) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kLocaware))).ValueOrDie();
  e->Run();
  size_t filenames = 0, providers = 0;
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    filenames += e->node(p).ri->num_filenames();
    providers += e->node(p).ri->TotalProviderCount();
  }
  ASSERT_GT(filenames, 0u);
  // "The response index in Locaware has for each file more possibilities of
  // providers" — on a Zipf workload the average must exceed 1 per filename.
  EXPECT_GT(static_cast<double>(providers) / static_cast<double>(filenames), 1.05);
}

TEST(EngineTest, LocawareBloomFilterMatchesIndexContents) {
  // Strong invariant: after a full run, each peer's counting-filter
  // projection equals a filter rebuilt from its current RI keywords. This
  // exercises insert + evict + expiry bookkeeping end to end.
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kLocaware))).ValueOrDie();
  e->Run();
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    const NodeState& n = e->node(p);
    bloom::BloomFilter rebuilt(e->params().bloom_bits, e->params().bloom_hashes);
    for (FileId f : n.ri->Files()) {
      // Rebuild from keyword *strings*: the precomputed-hash path the engine
      // uses must land on exactly the same bits.
      for (KeywordId kw : n.ri->KeywordsOf(f)) rebuilt.Insert(e->catalog().keyword(kw));
    }
    EXPECT_EQ(n.keyword_filter->projection(), rebuilt) << "peer " << p;
  }
}

TEST(EngineTest, LocawareNeighborsLearnFilters) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kLocaware))).ValueOrDie();
  e->Run();
  // After the run every neighbor pair has exchanged filters at link-up, and
  // gossip kept them fresh; spot-check that copies exist and have content
  // somewhere.
  size_t copies = 0, nonzero = 0;
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    for (const auto& [nb, filter] : e->node(p).neighbor_filters) {
      ++copies;
      nonzero += (filter.CountOnes() > 0);
    }
  }
  EXPECT_GT(copies, 0u);
  EXPECT_GT(nonzero, 0u);
  EXPECT_GT(e->metrics().bloom_update_msgs(), 0u);
  EXPECT_GT(e->metrics().bloom_update_bytes(), 0u);
}

TEST(EngineTest, LocawareGossipKeepsNeighborCopiesExact) {
  // Because gossip always sends deltas against the sender's advertised state
  // and link-up copies that state, a neighbor's copy must equal the sender's
  // advertised filter at all quiescent points (end of run).
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kLocaware))).ValueOrDie();
  e->Run();
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    for (const auto& [nb, filter] : e->node(p).neighbor_filters) {
      if (!e->graph().AreNeighbors(p, nb)) continue;  // stale ex-neighbor copy
      EXPECT_EQ(filter, *e->node(nb).advertised_filter)
          << "peer " << p << " has a diverged copy of " << nb;
    }
  }
}

TEST(EngineTest, NaturalReplicationGrowsFileStores) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kFlooding))).ValueOrDie();
  e->Run();
  size_t total_files = 0;
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    total_files += e->node(p).file_store.size();
  }
  // 150 peers x 3 initial + one copy per successful downloaded query.
  const auto summary = metrics::Summarize(e->metrics());
  EXPECT_GT(summary.success_rate, 0.0);
  EXPECT_GT(total_files, 150u * 3u);
}

TEST(EngineTest, UniformUnderlayRuns) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kLocaware);
  cfg.use_uniform_underlay = true;
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  e->Run();
  EXPECT_EQ(e->metrics().records().size(), 200u);
}

TEST(EngineTest, ChurnRunCompletesAndTracksEvents) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kLocaware);
  cfg.churn.enabled = true;
  cfg.churn.mean_session_s = 600;
  cfg.churn.mean_offline_s = 200;
  cfg.params.ri.entry_ttl = 120 * sim::kSecond;
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  e->Run();
  EXPECT_EQ(e->metrics().records().size(), 200u);
  EXPECT_GT(e->metrics().churn_events(), 0u);
  // The overlay stays meaningfully connected despite departures.
  EXPECT_GT(e->graph().num_alive(), 50u);
  EXPECT_GT(e->graph().LargestComponentFraction(), 0.5);
}

TEST(EngineTest, ProtocolSeesExpectedKindAndSelection) {
  auto loc = std::move(Engine::Create(TinyConfig(ProtocolKind::kLocaware))).ValueOrDie();
  EXPECT_EQ(loc->protocol().kind(), ProtocolKind::kLocaware);
  EXPECT_EQ(loc->protocol().DefaultSelection(), SelectionStrategy::kLocIdThenRtt);
  auto flood =
      std::move(Engine::Create(TinyConfig(ProtocolKind::kFlooding))).ValueOrDie();
  EXPECT_EQ(flood->protocol().DefaultSelection(), SelectionStrategy::kRandom);
}

TEST(EngineTest, ByteAccountingTracksMessages) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kFlooding))).ValueOrDie();
  e->Run();
  uint64_t total_msgs = 0, total_bytes = 0;
  for (const auto& r : e->metrics().records()) {
    total_msgs += r.TotalSearchMessages();
    total_bytes += r.TotalSearchBytes();
    // Every counted message carries at least a Gnutella header.
    EXPECT_GE(r.TotalSearchBytes(), r.TotalSearchMessages() * 23);
  }
  EXPECT_GT(total_bytes, total_msgs * 23);
  const auto summary = metrics::Summarize(e->metrics());
  EXPECT_GT(summary.bytes_per_query, summary.msgs_per_query * 23);
}

TEST(EngineTest, LocAwareRoutingVariantRunsAndStaysLocal) {
  ExperimentConfig off_cfg = TinyConfig(ProtocolKind::kLocaware);
  ExperimentConfig on_cfg = off_cfg;
  on_cfg.params.loc_aware_routing = true;

  auto off = std::move(Engine::Create(off_cfg)).ValueOrDie();
  off->Run();
  auto on = std::move(Engine::Create(on_cfg)).ValueOrDie();
  on->Run();

  const auto s_off = metrics::Summarize(off->metrics());
  const auto s_on = metrics::Summarize(on->metrics());
  EXPECT_EQ(s_on.num_queries, 200u);
  // The extension must not change the workload outcome dramatically at this
  // scale; it should not *hurt* locality.
  EXPECT_GE(s_on.loc_match_rate, s_off.loc_match_rate * 0.8);
}

TEST(EngineTest, BarabasiAlbertUnderlayRuns) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kLocaware);
  cfg.underlay.model = net::RouterGraphModel::kBarabasiAlbert;
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  e->Run();
  EXPECT_EQ(e->metrics().records().size(), 200u);
  const auto summary = metrics::Summarize(e->metrics());
  EXPECT_GT(summary.success_rate, 0.0);
}

TEST(EngineTest, TraceReplayReproducesGeneratedRun) {
  // Run once with a generated workload, save its trace, run again from the
  // trace: same topology seed + same query stream => identical results.
  const ExperimentConfig cfg = TinyConfig(ProtocolKind::kLocaware, 77);
  auto original = std::move(Engine::Create(cfg)).ValueOrDie();
  const std::string path = ::testing::TempDir() + "/locaware_engine_trace.txt";
  ASSERT_TRUE(original->workload().SaveTrace(path, original->catalog()).ok());
  original->Run();
  const auto base = metrics::Summarize(original->metrics());

  ExperimentConfig replay_cfg = cfg;
  replay_cfg.trace_path = path;
  auto replay = std::move(Engine::Create(replay_cfg)).ValueOrDie();
  replay->Run();
  const auto replayed = metrics::Summarize(replay->metrics());

  EXPECT_EQ(base.success_rate, replayed.success_rate);
  EXPECT_EQ(base.msgs_per_query, replayed.msgs_per_query);
  EXPECT_EQ(base.avg_download_ms, replayed.avg_download_ms);
  std::remove(path.c_str());
}

TEST(EngineTest, TraceReplayRejectsOutOfRangeEvents) {
  const std::string path = ::testing::TempDir() + "/locaware_bad_engine_trace.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // requester 5000 does not exist in a 150-peer network.
    std::fputs("0 5000 1 1000 somekeyword\n", f);
    std::fclose(f);
  }
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kDicas);
  cfg.trace_path = path;
  EXPECT_FALSE(Engine::Create(cfg).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // file 900000 does not exist in a 300-file catalog.
    std::fputs("0 3 900000 1000 somekeyword\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(Engine::Create(cfg).ok());
  std::remove(path.c_str());
}

TEST(EngineTest, SummaryReportsFirstResponseLatency) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kFlooding))).ValueOrDie();
  e->Run();
  const auto s = metrics::Summarize(e->metrics());
  // Flooding always collects responses for successful queries; latency must
  // be positive, bounded by the query deadline, and ordered p50 <= p95.
  ASSERT_GT(s.success_rate, 0.0);
  EXPECT_GT(s.first_response_ms_p50, 0.0);
  EXPECT_GE(s.first_response_ms_p95, s.first_response_ms_p50);
  EXPECT_LE(s.first_response_ms_p95, sim::ToMs(e->params().query_deadline));
  EXPECT_GT(s.first_response_hops_mean, 0.0);
  EXPECT_LE(s.first_response_hops_mean, 7.0);
}

TEST(EngineTest, OneWayDelayIsHalfRtt) {
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kFlooding))).ValueOrDie();
  const double rtt_ms = e->underlay().RttMs(1, 2);
  EXPECT_EQ(e->OneWayDelay(1, 2), sim::FromMs(rtt_ms / 2.0));
}

class AllProtocolsTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllProtocolsTest, RunsToCompletionWithSaneMetrics) {
  auto e = std::move(Engine::Create(TinyConfig(GetParam()))).ValueOrDie();
  e->Run();
  const auto summary = metrics::Summarize(e->metrics());
  EXPECT_EQ(summary.num_queries, 200u);
  EXPECT_GE(summary.success_rate, 0.0);
  EXPECT_LE(summary.success_rate, 1.0);
  EXPECT_GT(summary.msgs_per_query, 0.0);
  if (summary.success_rate > 0) {
    EXPECT_GT(summary.avg_download_ms, 0.0);
    EXPECT_LE(summary.avg_download_ms, 500.0);
  }
}

TEST_P(AllProtocolsTest, ChurnVariantAlsoCompletes) {
  ExperimentConfig cfg = TinyConfig(GetParam());
  cfg.churn.enabled = true;
  cfg.churn.mean_session_s = 400;
  cfg.churn.mean_offline_s = 150;
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  e->Run();
  EXPECT_EQ(e->metrics().records().size(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllProtocolsTest,
                         ::testing::Values(ProtocolKind::kFlooding, ProtocolKind::kDicas,
                                           ProtocolKind::kDicasKeys,
                                           ProtocolKind::kLocaware, ProtocolKind::kDht,
                                           ProtocolKind::kHybrid),
                         [](const auto& info) {
                           std::string name = ProtocolKindName(info.param);
                           return name == "Dicas-Keys" ? "DicasKeys" : name;
                         });

// --- sharded execution (the TSan CI job also runs ShardInvariance*) --------

/// Runs TinyConfig under `shards` and returns the merged per-query records.
std::vector<metrics::QueryRecord> RunSharded(
    ProtocolKind kind, uint32_t shards, uint64_t seed = 7,
    sim::PlacementStrategy placement = sim::PlacementStrategy::kModulo,
    bool steal = true) {
  ExperimentConfig cfg = TinyConfig(kind, seed);
  cfg.scheduler.shards = shards;
  cfg.scheduler.placement = placement;
  cfg.scheduler.work_stealing = steal;
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  e->Run();
  EXPECT_EQ(e->pending_query_count(), 0u);
  EXPECT_EQ(e->tracked_query_count(), 0u);
  return e->metrics().records();
}

class ShardInvarianceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ShardInvarianceTest, FourShardsMatchSequentialPerQuery) {
  // The determinism contract: --shards is a wall-clock knob, never a results
  // knob. Compare every per-query field, not just the aggregates — a
  // compensating error (one query over-counted, another under-counted) would
  // survive a summary-only check.
  const auto seq = RunSharded(GetParam(), 1);
  const auto par = RunSharded(GetParam(), 4);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    const metrics::QueryRecord& a = seq[i];
    const metrics::QueryRecord& b = par[i];
    EXPECT_EQ(a.qid, b.qid);
    EXPECT_EQ(a.success, b.success) << "slot " << i;
    EXPECT_EQ(a.source, b.source) << "slot " << i;
    EXPECT_EQ(a.query_msgs, b.query_msgs) << "slot " << i;
    EXPECT_EQ(a.query_bytes, b.query_bytes) << "slot " << i;
    EXPECT_EQ(a.response_msgs, b.response_msgs) << "slot " << i;
    EXPECT_EQ(a.response_bytes, b.response_bytes) << "slot " << i;
    EXPECT_EQ(a.probe_msgs, b.probe_msgs) << "slot " << i;
    EXPECT_EQ(a.responses_received, b.responses_received) << "slot " << i;
    EXPECT_EQ(a.providers_offered, b.providers_offered) << "slot " << i;
    EXPECT_EQ(a.first_response_at, b.first_response_at) << "slot " << i;
    EXPECT_EQ(a.first_response_hops, b.first_response_hops) << "slot " << i;
    EXPECT_EQ(a.download_distance_ms, b.download_distance_ms) << "slot " << i;
    EXPECT_EQ(a.provider_loc_match, b.provider_loc_match) << "slot " << i;
  }
}

TEST_P(ShardInvarianceTest, OddShardCountAlsoMatches) {
  // 3 shards leaves uneven partitions (150 % 3 == 0 peers-wise but different
  // peer sets per shard than 4); summaries must still match the sequential
  // run exactly.
  const auto seq = RunSharded(GetParam(), 1, /*seed=*/21);
  const auto par = RunSharded(GetParam(), 3, /*seed=*/21);
  ASSERT_EQ(seq.size(), par.size());
  uint64_t seq_msgs = 0, par_msgs = 0, seq_bytes = 0, par_bytes = 0;
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].success, par[i].success) << "slot " << i;
    seq_msgs += seq[i].TotalSearchMessages();
    par_msgs += par[i].TotalSearchMessages();
    seq_bytes += seq[i].TotalSearchBytes();
    par_bytes += par[i].TotalSearchBytes();
  }
  EXPECT_EQ(seq_msgs, par_msgs);
  EXPECT_EQ(seq_bytes, par_bytes);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ShardInvarianceTest,
                         ::testing::Values(ProtocolKind::kFlooding, ProtocolKind::kDicas,
                                           ProtocolKind::kDicasKeys,
                                           ProtocolKind::kLocaware, ProtocolKind::kDht,
                                           ProtocolKind::kHybrid),
                         [](const auto& info) {
                           std::string name = ProtocolKindName(info.param);
                           return name == "Dicas-Keys" ? "DicasKeys" : name;
                         });

// --- skewed load + work stealing (TSan runs *ShardInvariance*) -------------

/// Writes a trace whose every requester is remapped to a peer ≡ 0 (mod 8):
/// at shards ∈ {2, 4, 8} the whole query load lands on shard 0 — the flash-
/// crowd skew the stealing scheduler absorbs. Keywords are written as
/// strings resolved through a catalog built exactly like the engine's (same
/// seed split), so replay interns the same ids and queries really hit.
std::string WriteSkewedTrace(const ExperimentConfig& cfg, const std::string& tag) {
  Rng root(cfg.seed);
  Rng catalog_rng = root.Split("catalog");
  auto catalog =
      std::move(catalog::FileCatalog::Generate(cfg.catalog, &catalog_rng)).ValueOrDie();
  Rng workload_rng = root.Split("workload");
  auto workload = std::move(catalog::QueryWorkload::Generate(
                                cfg.workload, catalog, cfg.num_peers, &workload_rng))
                      .ValueOrDie();
  const std::string path = ::testing::TempDir() + "locaware_skew_" + tag + ".trace";
  std::ofstream out(path);
  out << "# locaware-trace-v1: id requester target submit_us keywords...\n";
  for (const catalog::QueryEvent& q : workload.queries()) {
    out << q.id << ' ' << (q.requester - q.requester % 8) << ' ' << q.target << ' '
        << q.submit_time;
    for (KeywordId kw : q.keywords) out << ' ' << catalog.keyword(kw);
    out << '\n';
  }
  EXPECT_TRUE(out.good());
  return path;
}

class SkewedShardInvarianceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SkewedShardInvarianceTest, StealingOnAndOffMatchSequentialPerQuery) {
  // Byte-equality under the worst case for the scheduler: every query
  // originates on shard 0 while 8 shards share 2 workers. Stealing (and its
  // absence) may only move wall-clock, never a single per-query field.
  ExperimentConfig base = TinyConfig(GetParam(), /*seed=*/11);
  base.trace_path = WriteSkewedTrace(base, ProtocolKindName(GetParam()));
  const auto run = [&](uint32_t shards, uint32_t workers, bool steal) {
    ExperimentConfig cfg = base;
    cfg.scheduler.shards = shards;
    cfg.scheduler.workers = workers;
    cfg.scheduler.work_stealing = steal;
    auto e = std::move(Engine::Create(cfg)).ValueOrDie();
    e->Run();
    EXPECT_EQ(e->pending_query_count(), 0u);
    EXPECT_EQ(e->tracked_query_count(), 0u);
    return e->metrics().records();
  };
  const auto seq = run(1, 0, true);
  ASSERT_EQ(seq.size(), 200u);
  size_t successes = 0;
  for (const auto& r : seq) successes += r.success ? 1 : 0;
  ASSERT_GT(successes, 0u) << "skewed trace produced no hits at all";
  for (uint32_t shards : {2u, 4u, 8u}) {
    for (bool steal : {false, true}) {
      const auto par = run(shards, /*workers=*/2, steal);
      ASSERT_EQ(par.size(), seq.size());
      for (size_t i = 0; i < seq.size(); ++i) {
        const metrics::QueryRecord& a = seq[i];
        const metrics::QueryRecord& b = par[i];
        const std::string where = "slot " + std::to_string(i) + " shards " +
                                  std::to_string(shards) +
                                  (steal ? " steal" : " pinned");
        EXPECT_EQ(a.success, b.success) << where;
        EXPECT_EQ(a.source, b.source) << where;
        EXPECT_EQ(a.query_msgs, b.query_msgs) << where;
        EXPECT_EQ(a.query_bytes, b.query_bytes) << where;
        EXPECT_EQ(a.response_msgs, b.response_msgs) << where;
        EXPECT_EQ(a.response_bytes, b.response_bytes) << where;
        EXPECT_EQ(a.responses_received, b.responses_received) << where;
        EXPECT_EQ(a.providers_offered, b.providers_offered) << where;
        EXPECT_EQ(a.first_response_at, b.first_response_at) << where;
        EXPECT_EQ(a.download_distance_ms, b.download_distance_ms) << where;
        EXPECT_EQ(a.provider_loc_match, b.provider_loc_match) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SkewedShardInvarianceTest,
                         ::testing::Values(ProtocolKind::kFlooding, ProtocolKind::kDicas,
                                           ProtocolKind::kDicasKeys,
                                           ProtocolKind::kLocaware, ProtocolKind::kDht,
                                           ProtocolKind::kHybrid),
                         [](const auto& info) {
                           std::string name = ProtocolKindName(info.param);
                           return name == "Dicas-Keys" ? "DicasKeys" : name;
                         });

TEST(ShardConfigTest, PairwiseLookaheadHonorsScalarFloorAndDeadlineCap) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kDicas);
  cfg.scheduler.shards = 4;
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  const sim::SimTime scalar = sim::FromMs(e->underlay().MinPairRttMs() / 2.0);
  for (sim::ShardId s = 0; s < 4; ++s) {
    // Digests cover every shard's peers, sorted and deduplicated.
    const std::vector<size_t>& locs = e->placement().ShardLocations(s);
    ASSERT_FALSE(locs.empty());
    EXPECT_TRUE(std::is_sorted(locs.begin(), locs.end()));
    EXPECT_TRUE(std::adjacent_find(locs.begin(), locs.end()) == locs.end());
    for (sim::ShardId d = 0; d < 4; ++d) {
      if (s == d) continue;
      const sim::SimTime la = e->simulator().LookaheadBetween(s, d);
      EXPECT_GE(la, scalar) << s << "->" << d;
      EXPECT_LE(la, cfg.params.query_deadline) << s << "->" << d;
    }
  }
}

TEST(ShardConfigTest, CreateAcceptsShardedChurn) {
  // PR 2 rejected this combination; churn now runs as owner-shard events with
  // message-routed overlay repair, so it composes with any shard count.
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kDicas);
  cfg.scheduler.shards = 4;
  cfg.churn.enabled = true;
  EXPECT_TRUE(Engine::Create(cfg).ok());
  cfg.scheduler.shards = 1;
  EXPECT_TRUE(Engine::Create(cfg).ok());
}

TEST(ShardConfigTest, CreateRejectsZeroShards) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kDicas);
  cfg.scheduler.shards = 0;
  EXPECT_FALSE(Engine::Create(cfg).ok());
}

// --- placement invariance (the TSan CI job also runs *ShardInvariance*) ----

class PlacementShardInvarianceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(PlacementShardInvarianceTest, ClusteredMatchesSequentialModuloPerQuery) {
  // Placement joins shards/workers/stealing in the wall-clock-only club: the
  // locality-clustered peer → shard map may only change window depth, never a
  // per-query field. The baseline is the sequential *modulo* run, so this
  // also proves the two strategies agree with each other at every shard
  // count, with and without stealing.
  const auto seq = RunSharded(GetParam(), 1);
  ASSERT_EQ(seq.size(), 200u);
  for (uint32_t shards : {4u, 8u}) {
    for (bool steal : {false, true}) {
      const auto par = RunSharded(GetParam(), shards, /*seed=*/7,
                                  sim::PlacementStrategy::kClustered, steal);
      ASSERT_EQ(par.size(), seq.size());
      for (size_t i = 0; i < seq.size(); ++i) {
        const metrics::QueryRecord& a = seq[i];
        const metrics::QueryRecord& b = par[i];
        const std::string where = "slot " + std::to_string(i) + " shards " +
                                  std::to_string(shards) +
                                  (steal ? " steal" : " pinned");
        EXPECT_EQ(a.qid, b.qid) << where;
        EXPECT_EQ(a.success, b.success) << where;
        EXPECT_EQ(a.source, b.source) << where;
        EXPECT_EQ(a.query_msgs, b.query_msgs) << where;
        EXPECT_EQ(a.query_bytes, b.query_bytes) << where;
        EXPECT_EQ(a.response_msgs, b.response_msgs) << where;
        EXPECT_EQ(a.response_bytes, b.response_bytes) << where;
        EXPECT_EQ(a.probe_msgs, b.probe_msgs) << where;
        EXPECT_EQ(a.responses_received, b.responses_received) << where;
        EXPECT_EQ(a.providers_offered, b.providers_offered) << where;
        EXPECT_EQ(a.first_response_at, b.first_response_at) << where;
        EXPECT_EQ(a.first_response_hops, b.first_response_hops) << where;
        EXPECT_EQ(a.download_distance_ms, b.download_distance_ms) << where;
        EXPECT_EQ(a.provider_loc_match, b.provider_loc_match) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, PlacementShardInvarianceTest,
                         ::testing::Values(ProtocolKind::kFlooding, ProtocolKind::kDicas,
                                           ProtocolKind::kDicasKeys,
                                           ProtocolKind::kLocaware, ProtocolKind::kDht,
                                           ProtocolKind::kHybrid),
                         [](const auto& info) {
                           std::string name = ProtocolKindName(info.param);
                           return name == "Dicas-Keys" ? "DicasKeys" : name;
                         });

TEST(PlacementConfigTest, ClusteredPartitionIsCompleteAndLocationTight) {
  // Structural checks on the engine-built clustered placement: every peer
  // owned exactly once, counts per shard sum to num_peers, and each shard's
  // location digest is no wider than the modulo one (clustering may only
  // concentrate, never scatter).
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kDicas);
  cfg.scheduler.shards = 4;
  cfg.scheduler.placement = sim::PlacementStrategy::kClustered;
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  const sim::ShardPlacement& placement = e->placement();
  EXPECT_EQ(placement.strategy(), sim::PlacementStrategy::kClustered);
  ASSERT_EQ(placement.num_peers(), e->num_peers());
  size_t total = 0;
  for (sim::ShardId s = 0; s < 4; ++s) total += placement.shard_peer_counts()[s];
  EXPECT_EQ(total, e->num_peers());
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    EXPECT_LT(e->shard_of(p), 4u) << "peer " << p;
    EXPECT_EQ(e->shard_of(p), placement.owner_map()[p]) << "peer " << p;
  }
  // With 40 routers over 4 shards, a locality-tight shard sees far fewer
  // distinct locations than the modulo scatter (which sees nearly all 40).
  for (sim::ShardId s = 0; s < 4; ++s) {
    const auto& locs = placement.ShardLocations(s);
    ASSERT_FALSE(locs.empty());
    EXPECT_TRUE(std::is_sorted(locs.begin(), locs.end()));
    EXPECT_LT(locs.size(), 40u) << "shard " << s;
  }
}

// --- churn + sharding (the TSan CI job also runs *ShardInvariance*) --------

/// TinyConfig plus brisk session churn: ~2 cycles per peer inside the
/// ~140-simulated-second run, with entry expiry on so stale-index pruning
/// paths execute too.
ExperimentConfig TinyChurnConfig(ProtocolKind kind, uint64_t seed = 7) {
  ExperimentConfig cfg = TinyConfig(kind, seed);
  cfg.churn.enabled = true;
  cfg.churn.mean_session_s = 60;
  cfg.churn.mean_offline_s = 20;
  cfg.params.ri.entry_ttl = 40 * sim::kSecond;
  return cfg;
}

/// Runs TinyChurnConfig under `shards`; returns the merged collector's view.
struct ChurnRunResult {
  std::vector<metrics::QueryRecord> records;
  uint64_t churn_events = 0;
  uint64_t stale_failures = 0;
  uint64_t stale_provider_hits = 0;
  uint64_t repair_msgs = 0;
  uint64_t repair_bytes = 0;
  uint64_t bloom_update_bytes = 0;
};

ChurnRunResult RunChurnSharded(ProtocolKind kind, uint32_t shards,
                               uint64_t seed = 7) {
  ExperimentConfig cfg = TinyChurnConfig(kind, seed);
  cfg.scheduler.shards = shards;
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  e->Run();
  EXPECT_EQ(e->pending_query_count(), 0u);
  EXPECT_EQ(e->tracked_query_count(), 0u);
  ChurnRunResult r;
  r.records = e->metrics().records();
  r.churn_events = e->metrics().churn_events();
  r.stale_failures = e->metrics().stale_failures();
  r.stale_provider_hits = e->metrics().stale_provider_hits();
  r.repair_msgs = e->metrics().repair_msgs();
  r.repair_bytes = e->metrics().repair_bytes();
  r.bloom_update_bytes = e->metrics().bloom_update_bytes();
  return r;
}

class ChurnShardInvarianceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ChurnShardInvarianceTest, FourShardsMatchSequentialPerQuery) {
  // The PR's contract: churn-enabled results are identical for every shard
  // count. Per-query fields AND the churn/repair counters must match — a
  // racy mailbox or an interleaving-dependent draw would shift either.
  const ChurnRunResult seq = RunChurnSharded(GetParam(), 1);
  const ChurnRunResult par = RunChurnSharded(GetParam(), 4);
  ASSERT_GT(seq.churn_events, 0u) << "config produced no churn at all";
  EXPECT_EQ(seq.churn_events, par.churn_events);
  EXPECT_EQ(seq.stale_failures, par.stale_failures);
  EXPECT_EQ(seq.stale_provider_hits, par.stale_provider_hits);
  EXPECT_EQ(seq.repair_msgs, par.repair_msgs);
  EXPECT_EQ(seq.repair_bytes, par.repair_bytes);
  EXPECT_EQ(seq.bloom_update_bytes, par.bloom_update_bytes);
  ASSERT_EQ(seq.records.size(), par.records.size());
  for (size_t i = 0; i < seq.records.size(); ++i) {
    const metrics::QueryRecord& a = seq.records[i];
    const metrics::QueryRecord& b = par.records[i];
    EXPECT_EQ(a.success, b.success) << "slot " << i;
    EXPECT_EQ(a.source, b.source) << "slot " << i;
    EXPECT_EQ(a.query_msgs, b.query_msgs) << "slot " << i;
    EXPECT_EQ(a.query_bytes, b.query_bytes) << "slot " << i;
    EXPECT_EQ(a.response_msgs, b.response_msgs) << "slot " << i;
    EXPECT_EQ(a.response_bytes, b.response_bytes) << "slot " << i;
    EXPECT_EQ(a.responses_received, b.responses_received) << "slot " << i;
    EXPECT_EQ(a.providers_offered, b.providers_offered) << "slot " << i;
    EXPECT_EQ(a.first_response_at, b.first_response_at) << "slot " << i;
    EXPECT_EQ(a.download_distance_ms, b.download_distance_ms) << "slot " << i;
    EXPECT_EQ(a.provider_loc_match, b.provider_loc_match) << "slot " << i;
  }
}

TEST_P(ChurnShardInvarianceTest, OddShardCountAlsoMatches) {
  const ChurnRunResult seq = RunChurnSharded(GetParam(), 1, /*seed=*/21);
  const ChurnRunResult par = RunChurnSharded(GetParam(), 3, /*seed=*/21);
  EXPECT_EQ(seq.churn_events, par.churn_events);
  EXPECT_EQ(seq.repair_msgs, par.repair_msgs);
  EXPECT_EQ(seq.repair_bytes, par.repair_bytes);
  ASSERT_EQ(seq.records.size(), par.records.size());
  uint64_t seq_msgs = 0, par_msgs = 0, seq_bytes = 0, par_bytes = 0;
  for (size_t i = 0; i < seq.records.size(); ++i) {
    EXPECT_EQ(seq.records[i].success, par.records[i].success) << "slot " << i;
    seq_msgs += seq.records[i].TotalSearchMessages();
    par_msgs += par.records[i].TotalSearchMessages();
    seq_bytes += seq.records[i].TotalSearchBytes();
    par_bytes += par.records[i].TotalSearchBytes();
  }
  EXPECT_EQ(seq_msgs, par_msgs);
  EXPECT_EQ(seq_bytes, par_bytes);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ChurnShardInvarianceTest,
                         ::testing::Values(ProtocolKind::kFlooding, ProtocolKind::kDicas,
                                           ProtocolKind::kDicasKeys,
                                           ProtocolKind::kLocaware, ProtocolKind::kDht,
                                           ProtocolKind::kHybrid),
                         [](const auto& info) {
                           std::string name = ProtocolKindName(info.param);
                           return name == "Dicas-Keys" ? "DicasKeys" : name;
                         });

TEST(ChurnLifecycleTest, RepairTrafficIsAccountedUnderChurn) {
  const ChurnRunResult r = RunChurnSharded(ProtocolKind::kLocaware, 1);
  ASSERT_GT(r.churn_events, 0u);
  // Every departure sends LinkDrops and every rejoin probes: with ~300 churn
  // events the repair plane cannot be silent, and bytes include headers.
  EXPECT_GT(r.repair_msgs, 0u);
  EXPECT_GE(r.repair_bytes, r.repair_msgs * 23);
}

TEST(ChurnLifecycleTest, TimelineMatchesGraphAliveAtQuiescence) {
  ExperimentConfig cfg = TinyChurnConfig(ProtocolKind::kDicas);
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  e->Run();
  // After the run, the overlay's alive flags are exactly the timeline's
  // answer at the final instant: the scheduled transitions and the pure
  // schedule never diverge.
  const sim::SimTime now = e->simulator().Now();
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    EXPECT_EQ(e->graph().IsAlive(p), e->churn_timeline().IsOnlineAt(p, now))
        << "peer " << p;
  }
}

}  // namespace
}  // namespace locaware::core
