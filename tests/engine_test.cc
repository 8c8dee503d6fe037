#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/group_hash.h"
#include "sim/sharded_simulator.h"

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

TEST(EngineTest, CreateRejectsZeroPeers) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kFlooding);
  cfg.num_peers = 0;
  auto created = Engine::Create(cfg);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("num_peers"), std::string::npos)
      << created.status().ToString();
}

TEST(EngineTest, CreateRejectsZeroMaintenanceInterval) {
  // A tick reschedules itself one interval later; zero used to spin forever.
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kLocaware);
  cfg.params.maintenance_interval = 0;
  auto created = Engine::Create(cfg);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, CreateRejectsZeroDhtFingers) {
  for (ProtocolKind kind : {ProtocolKind::kDht, ProtocolKind::kHybrid}) {
    ExperimentConfig cfg = TinyConfig(kind);
    cfg.params.dht_fingers = 0;
    auto created = Engine::Create(cfg);
    ASSERT_FALSE(created.ok()) << ProtocolKindName(kind);
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineTest, CreateRejectsZeroTtlForFloodedProtocols) {
  // A TTL-0 query is never forwarded, so every query used to fail quietly.
  for (ProtocolKind kind : {ProtocolKind::kFlooding, ProtocolKind::kDicas,
                            ProtocolKind::kDicasKeys, ProtocolKind::kLocaware}) {
    ExperimentConfig cfg = TinyConfig(kind);
    cfg.params.ttl = 0;
    auto created = Engine::Create(cfg);
    ASSERT_FALSE(created.ok()) << ProtocolKindName(kind);
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(created.status().message().find("params.ttl"), std::string::npos)
        << created.status().ToString();
  }
  // Pure DHT lookups do not flood, so the TTL does not bind there.
  ExperimentConfig dht = TinyConfig(ProtocolKind::kDht);
  dht.params.ttl = 0;
  EXPECT_TRUE(Engine::Create(dht).ok());
}

TEST(EngineTest, CreateRejectsZeroDhtSuccessors) {
  // With no successor list a lookup cannot route; every query used to fail.
  for (ProtocolKind kind : {ProtocolKind::kDht, ProtocolKind::kHybrid}) {
    ExperimentConfig cfg = TinyConfig(kind);
    cfg.params.dht_successors = 0;
    auto created = Engine::Create(cfg);
    ASSERT_FALSE(created.ok()) << ProtocolKindName(kind);
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(created.status().message().find("dht.successors"), std::string::npos)
        << created.status().ToString();
  }
  // Protocols without a DHT plane never read the successor count.
  ExperimentConfig locaware = TinyConfig(ProtocolKind::kLocaware);
  locaware.params.dht_successors = 0;
  EXPECT_TRUE(Engine::Create(locaware).ok());
}

TEST(EngineTest, CreateRejectsZeroIndexCapacity) {
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kLocaware);
  cfg.params.ri.max_filenames = 0;
  auto created = Engine::Create(cfg);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, CreateRejectsDegreeAbovePeerCount) {
  // 150 peers can each have at most 149 neighbors; the overlay generator
  // must say so up front instead of failing to place the links.
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kFlooding);
  cfg.avg_degree = static_cast<double>(cfg.num_peers);
  auto created = Engine::Create(cfg);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("avg_degree"), std::string::npos)
      << created.status().ToString();
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
  // Set-up stores no copies (every filter is empty then); gossip installs a
  // copy with a neighbor's first delta and keeps it fresh. Spot-check that
  // copies exist after the run and have content somewhere.
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
  // Gossip always sends deltas against the sender's advertised state, and a
  // copy starts absent, which reads as the empty filter every peer
  // advertises at set-up. So at a quiescent point (end of run) p's view of
  // every neighbor nb (its copy, or an empty filter of the configured shape
  // when it holds none) must equal nb's advertised filter.
  auto e = std::move(Engine::Create(TinyConfig(ProtocolKind::kLocaware))).ValueOrDie();
  e->Run();
  const bloom::BloomFilter empty(e->params().bloom_bits, e->params().bloom_hashes);
  size_t pairs = 0, absent = 0;
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    const auto& copies = e->node(p).neighbor_filters;
    for (PeerId nb : e->graph().Neighbors(p)) {
      ++pairs;
      const auto it = copies.find(nb);
      absent += it == copies.end();
      EXPECT_EQ(it == copies.end() ? empty : it->second, *e->node(nb).advertised_filter)
          << "peer " << p << " has a diverged view of " << nb;
    }
    // The overlay is static, so no copy outlives its link.
    for (const auto& [nb, filter] : copies) {
      EXPECT_TRUE(e->graph().AreNeighbors(p, nb)) << "peer " << p << " copy of " << nb;
    }
  }
  EXPECT_GT(pairs, 0u);
  EXPECT_GT(absent, 0u) << "set-up must store no copies of empty filters";
  EXPECT_LT(absent, pairs) << "gossip installed no copy";
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
    uint32_t workers = 0) {
  ExperimentConfig cfg = TinyConfig(kind, seed);
  cfg.scheduler.shards = shards;
  cfg.scheduler.placement = placement;
  cfg.scheduler.workers = workers;
  auto e = std::move(Engine::Create(cfg)).ValueOrDie();
  e->Run();
  EXPECT_EQ(e->pending_query_count(), 0u);
  EXPECT_EQ(e->tracked_query_count(), 0u);
  return e->metrics().records();
}

/// Every per-query field of two runs' merged records, slot by slot.
void ExpectSameRecords(const std::vector<metrics::QueryRecord>& seq,
                       const std::vector<metrics::QueryRecord>& par) {
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

class ShardInvarianceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ShardInvarianceTest, FourShardsMatchSequentialPerQuery) {
  // The determinism contract: --shards is a wall-clock knob, never a results
  // knob. Compare every per-query field, not just the aggregates — a
  // compensating error (one query over-counted, another under-counted) would
  // survive a summary-only check.
  ExpectSameRecords(RunSharded(GetParam(), 1), RunSharded(GetParam(), 4));
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

// --- spilled keyword lists (TSan runs *ShardInvariance*) -------------------

class SpilledKeywordShardInvarianceTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SpilledKeywordShardInvarianceTest, FourShardsMatchSequentialPerQuery) {
  // Queries of 5-6 keywords outgrow KeywordVec's 4 inline slots, so every
  // by-value query copy, and every response echoing its keywords, carries a
  // heap buffer through the cross-shard mailboxes. Sanitizer builds watch
  // those buffers relocate; the records must still match the sequential run.
  ExperimentConfig base = TinyConfig(GetParam());
  base.catalog.keywords_per_file = 6;
  base.workload.min_query_keywords = 5;
  base.workload.max_query_keywords = 6;

  Rng root(base.seed);
  Rng catalog_rng = root.Split("catalog");
  auto catalog =
      std::move(catalog::FileCatalog::Generate(base.catalog, &catalog_rng)).ValueOrDie();
  Rng workload_rng = root.Split("workload");
  auto workload = std::move(catalog::QueryWorkload::Generate(
                                base.workload, catalog, base.num_peers, &workload_rng))
                      .ValueOrDie();
  for (const catalog::QueryEvent& q : workload.queries()) {
    ASSERT_GT(q.keywords.size(), 4u) << "query " << q.id << " fits inline";
  }

  const auto run = [&](uint32_t shards, uint32_t workers) {
    ExperimentConfig cfg = base;
    cfg.scheduler.shards = shards;
    cfg.scheduler.workers = workers;
    auto e = std::move(Engine::Create(cfg)).ValueOrDie();
    e->Run();
    EXPECT_EQ(e->pending_query_count(), 0u);
    EXPECT_EQ(e->tracked_query_count(), 0u);
    return e->metrics().records();
  };
  const auto seq = run(1, 0);
  ASSERT_EQ(seq.size(), 200u);
  const bool remote_hit = std::any_of(seq.begin(), seq.end(), [](const auto& r) {
    return r.responses_received > 0;
  });
  EXPECT_TRUE(remote_hit) << "no response crossed the overlay";
  ExpectSameRecords(seq, run(4, 2));
}

INSTANTIATE_TEST_SUITE_P(PaperKinds, SpilledKeywordShardInvarianceTest,
                         ::testing::Values(ProtocolKind::kFlooding, ProtocolKind::kDicas,
                                           ProtocolKind::kDicasKeys,
                                           ProtocolKind::kLocaware),
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
  // originates on shard 0 while up to 8 shards share 1 or 2 workers.
  // Stealing may only move wall-clock, never a single per-query field.
  ExperimentConfig base = TinyConfig(GetParam(), /*seed=*/11);
  base.trace_path = WriteSkewedTrace(base, ProtocolKindName(GetParam()));
  const auto run = [&](uint32_t shards, uint32_t workers) {
    ExperimentConfig cfg = base;
    cfg.scheduler.shards = shards;
    cfg.scheduler.workers = workers;
    auto e = std::move(Engine::Create(cfg)).ValueOrDie();
    e->Run();
    EXPECT_EQ(e->pending_query_count(), 0u);
    EXPECT_EQ(e->tracked_query_count(), 0u);
    return e->metrics().records();
  };
  const auto seq = run(1, 0);
  ASSERT_EQ(seq.size(), 200u);
  size_t successes = 0;
  for (const auto& r : seq) successes += r.success ? 1 : 0;
  ASSERT_GT(successes, 0u) << "skewed trace produced no hits at all";
  for (uint32_t shards : {2u, 4u, 8u}) {
    for (uint32_t workers : {1u, 2u}) {
      const auto par = run(shards, workers);
      ASSERT_EQ(par.size(), seq.size());
      for (size_t i = 0; i < seq.size(); ++i) {
        const metrics::QueryRecord& a = seq[i];
        const metrics::QueryRecord& b = par[i];
        const std::string where = "slot " + std::to_string(i) + " shards " +
                                  std::to_string(shards) + " workers " +
                                  std::to_string(workers);
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

TEST(ShardConfigTest, LookaheadMatrixEqualsCrossProductScan) {
  // The matrix is built per location, not per shard pair; it must equal the
  // direct definition — the min bound over each pair's location cross
  // product, clamped to [scalar, deadline] — entry for entry. Clustered
  // placement gives disjoint location sets, modulo overlapping ones.
  for (sim::PlacementStrategy placement :
       {sim::PlacementStrategy::kModulo, sim::PlacementStrategy::kClustered}) {
    for (uint32_t shards : {2u, 4u, 8u}) {
      ExperimentConfig cfg = TinyConfig(ProtocolKind::kDicas);
      cfg.scheduler.shards = shards;
      cfg.scheduler.placement = placement;
      auto e = std::move(Engine::Create(cfg)).ValueOrDie();
      const sim::SimTime scalar = sim::FromMs(e->underlay().MinPairRttMs() / 2.0);
      const std::string where = std::string(sim::PlacementStrategyName(placement)) +
                                " shards=" + std::to_string(shards);
      bool overlap = false;
      for (sim::ShardId s = 0; s < shards; ++s) {
        const std::vector<size_t>& src = e->placement().ShardLocations(s);
        for (sim::ShardId d = 0; d < shards; ++d) {
          if (s == d) continue;
          const std::vector<size_t>& dst = e->placement().ShardLocations(d);
          double bound_ms = std::numeric_limits<double>::infinity();
          for (size_t a : src) {
            for (size_t b : dst) {
              bound_ms = std::min(bound_ms, e->underlay().PairRttLowerBoundMs(a, b));
              overlap |= a == b;
            }
          }
          sim::SimTime want =
              std::isfinite(bound_ms) ? sim::FromMs(bound_ms / 2.0) : scalar;
          want = std::min(std::max(want, scalar), cfg.params.query_deadline);
          EXPECT_EQ(e->simulator().LookaheadBetween(s, d), want)
              << where << " " << s << "->" << d;
        }
      }
      EXPECT_EQ(overlap, placement == sim::PlacementStrategy::kModulo) << where;
    }
  }
}

/// The per-window relaxation the lookahead closure replaced, kept as the
/// oracle: L is the fixpoint of L[s] = min(T_s, min over e of L[e] +
/// LA[e][s]), and end[d] = min over s != d of L[s] + LA[s][d].
std::vector<sim::SimTime> FixpointWindowEnds(const std::vector<sim::SimTime>& la,
                                             const std::vector<sim::SimTime>& local_min,
                                             sim::SimTime horizon) {
  constexpr sim::SimTime kNone = sim::ShardedSimulator::kNoHorizon;
  const auto sat = [](sim::SimTime t, sim::SimTime d) {
    return t > kNone - d ? kNone : t + d;
  };
  const size_t k = local_min.size();
  std::vector<sim::SimTime> earliest = local_min;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t s = 0; s < k; ++s) {
      if (earliest[s] == kNone) continue;
      for (size_t d = 0; d < k; ++d) {
        if (s == d) continue;
        const sim::SimTime via = sat(earliest[s], la[s * k + d]);
        if (via < earliest[d]) {
          earliest[d] = via;
          changed = true;
        }
      }
    }
  }
  std::vector<sim::SimTime> ends(k, kNone);
  for (size_t d = 0; d < k; ++d) {
    for (size_t s = 0; s < k; ++s) {
      if (s == d || earliest[s] == kNone) continue;
      ends[d] = std::min(ends[d], sat(earliest[s], la[s * k + d]));
    }
    if (horizon != kNone) ends[d] = std::min(ends[d], horizon + 1);
  }
  return ends;
}

TEST(ShardConfigTest, WindowEndsEqualIteratedFixpoint) {
  // Differential oracle: the closed form over the precomputed closure must
  // give the relaxation's window ends exactly, for random asymmetric
  // matrices (some entries near the saturation point), next-event vectors
  // with empty-shard holes (down to one busy shard), with and without a
  // horizon. Equal ends are what keep `sim.windows` unchanged.
  constexpr sim::SimTime kNone = sim::ShardedSimulator::kNoHorizon;
  Rng rng(2024);
  for (uint32_t k : {2u, 3u, 4u, 8u, 16u}) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<sim::SimTime> la(static_cast<size_t>(k) * k, 0);
      for (size_t i = 0; i < la.size(); ++i) {
        if (i / k == i % k) continue;  // the diagonal is ignored
        const auto draw = static_cast<sim::SimTime>(rng.UniformInt(1, 1000));
        la[i] = rng.Bernoulli(0.05) ? kNone - draw : draw;
      }
      const std::vector<sim::SimTime> reach =
          sim::ShardedSimulator::LookaheadClosure(la, k);
      for (int round = 0; round < 8; ++round) {
        std::vector<sim::SimTime> local_min(k, kNone);
        const bool one_busy = round % 4 == 0;  // all but one shard empty
        const size_t busy = rng.UniformInt(0, k - 1);
        for (size_t s = 0; s < k; ++s) {
          if (one_busy ? s != busy : rng.Bernoulli(0.3)) continue;
          local_min[s] = static_cast<sim::SimTime>(rng.UniformInt(0, 5000));
        }
        const sim::SimTime horizon =
            round % 2 == 0 ? kNone : static_cast<sim::SimTime>(rng.UniformInt(0, 6000));
        std::vector<sim::SimTime> ends;
        sim::ShardedSimulator::WindowEnds(reach, local_min, horizon, &ends);
        EXPECT_EQ(ends, FixpointWindowEnds(la, local_min, horizon))
            << "k=" << k << " trial=" << trial << " round=" << round;
      }
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
  // Placement joins shards/workers in the wall-clock-only club: the
  // locality-clustered peer → shard map may only change window depth, never a
  // per-query field. The baseline is the sequential *modulo* run, so this
  // also proves the two strategies agree with each other at every shard
  // count, on one worker and on one per shard.
  const auto seq = RunSharded(GetParam(), 1);
  ASSERT_EQ(seq.size(), 200u);
  for (uint32_t shards : {4u, 8u}) {
    for (uint32_t workers : {1u, 0u}) {
      const auto par = RunSharded(GetParam(), shards, /*seed=*/7,
                                  sim::PlacementStrategy::kClustered, workers);
      ASSERT_EQ(par.size(), seq.size());
      for (size_t i = 0; i < seq.size(); ++i) {
        const metrics::QueryRecord& a = seq[i];
        const metrics::QueryRecord& b = par[i];
        const std::string where = "slot " + std::to_string(i) + " shards " +
                                  std::to_string(shards) + " workers " +
                                  std::to_string(workers);
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

TEST(ChurnLifecycleTest, RejoinedPeerSeesQueryAnewAndDropsOldSessionResponses) {
  // A peer X leaves and comes back while a flooded query is in flight. Its
  // GUID and reverse-path state belong to the session that ended, so:
  //  (a) a response routed through X's old session dies at X, and
  //  (b) a copy of the query reaching X in its new session is a first
  //      sighting: X answers it again, over the path that copy took.
  // Each case runs one query over a hand-wired component; every other peer
  // is isolated. RTTs are uniform in [400, 500] ms and X is back within
  // 100 ms, so it returns before (a) Y's answer (>= 400 ms behind the query)
  // and before (b) Z's copy (>= 200 + 200 - 250 ms behind O's) reach it.
  // X's rejoin probe cannot link anyone in time to carry a query copy (a
  // handshake takes a full RTT), and no other peer churns around the query.
  ExperimentConfig cfg = TinyConfig(ProtocolKind::kFlooding, /*seed=*/11);
  cfg.use_uniform_underlay = true;
  cfg.underlay.min_rtt_ms = 400;
  cfg.underlay.max_rtt_ms = 500;
  cfg.churn.enabled = true;
  cfg.churn.mean_session_s = 4000;
  cfg.churn.mean_offline_s = 0.04;
  cfg.churn.rejoin_links = 1;
  cfg.params.maintenance_interval = 1'000'000'000 * sim::kSecond;  // no ticks
  constexpr sim::SimTime kMs = sim::kSecond / 1000;

  // Scout: the same seed yields the same timeline, overlay and file stores.
  auto scout = std::move(Engine::Create(cfg)).ValueOrDie();
  auto departs = [&](PeerId p) {
    const auto& t = scout->churn_timeline().transitions(p);
    return t.empty() ? INT64_MAX : t[0];
  };
  std::vector<PeerId> by_departure(scout->num_peers());
  for (PeerId p = 0; p < scout->num_peers(); ++p) by_departure[p] = p;
  std::sort(by_departure.begin(), by_departure.end(),
            [&](PeerId a, PeerId b) { return departs(a) < departs(b); });
  const PeerId x = by_departure[0];
  const auto& t = scout->churn_timeline().transitions(x);
  ASSERT_GE(t.size(), 2u);
  ASSERT_GT(t[0], sim::kSecond);
  ASSERT_LT(t[1] - t[0], 100 * kMs);
  ASSERT_TRUE(t.size() == 2 || t[2] > t[1] + 20 * sim::kSecond);
  ASSERT_GT(departs(by_departure[1]), t[0] + 20 * sim::kSecond);
  const FileId x_file = scout->node(x).file_store[0];
  const PeerId y = by_departure[1];  // shares a file X does not
  const FileId y_file = scout->node(y).file_store[0];
  ASSERT_FALSE(scout->node(x).SharesFile(y_file));
  std::vector<PeerId> others;  // share neither file
  for (size_t i = 2; i < by_departure.size() && others.size() < 2; ++i) {
    const NodeState& n = scout->node(by_departure[i]);
    if (!n.SharesFile(x_file) && !n.SharesFile(y_file)) {
      others.push_back(by_departure[i]);
    }
  }
  ASSERT_EQ(others.size(), 2u);

  // Runs one query for `file` from `origin` that reaches X 1 ms before it
  // departs, over an overlay of exactly `links`.
  const std::string path = ::testing::TempDir() + "/locaware_rejoin_trace.txt";
  auto run = [&](PeerId origin, FileId file,
                 std::vector<std::pair<PeerId, PeerId>> links) {
    {
      std::ofstream out(path);
      out << "0 " << origin << ' ' << file << ' '
          << t[0] - scout->OneWayDelay(origin, x) - kMs;
      for (KeywordId kw : scout->catalog().keywords(file)) {
        out << ' ' << scout->catalog().keyword(kw);
      }
      out << '\n';
    }
    ExperimentConfig replay = cfg;
    replay.trace_path = path;
    auto e = std::move(Engine::Create(replay)).ValueOrDie();
    std::remove(path.c_str());
    overlay::OverlayGraph& g = e->graph();
    for (PeerId p = 0; p < e->num_peers(); ++p) {
      while (g.Degree(p) > 0) g.RemoveHalfLink(p, g.Neighbors(p)[0], UINT32_MAX);
    }
    for (const auto& [a, b] : links) {
      EXPECT_TRUE(g.AddHalfLink(a, b, g.session_epoch(b)));
      EXPECT_TRUE(g.AddHalfLink(b, a, g.session_epoch(a)));
    }
    e->Run();
    EXPECT_EQ(e->tracked_query_count(), 0u);
    EXPECT_EQ(e->metrics().churn_events(), 2u);
    return e->metrics().records().at(0);
  };

  // (a) O - X - Y. Y answers via X; the answer reaches X in its new session
  // and dies there.
  const PeerId o = others[0], z = others[1];
  const metrics::QueryRecord a = run(o, y_file, {{o, x}, {x, y}});
  EXPECT_EQ(a.query_msgs, 2u);
  EXPECT_EQ(a.response_msgs, 1u);
  EXPECT_EQ(a.responses_received, 0u);

  // (b) O - X, O - Z - X; X shares the file. Copies O->X, O->Z, X->Z, Z->X.
  // X answers O before leaving, then answers Z's copy again once back; Z
  // relays that second answer to O.
  const metrics::QueryRecord b = run(o, x_file, {{o, x}, {o, z}, {z, x}});
  EXPECT_EQ(b.query_msgs, 4u);
  EXPECT_EQ(b.response_msgs, 3u);
  EXPECT_EQ(b.responses_received, 2u);
}

}  // namespace
}  // namespace locaware::core
