// Cross-seed invariant sweep: run small experiments for every protocol over
// several seeds and assert the structural invariants that must hold at
// quiescence regardless of randomness. This is the repository's main defense
// against "plausible but subtly wrong" simulation results.
#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/group_hash.h"

namespace locaware::core {
namespace {

struct SweepParam {
  ProtocolKind kind;
  uint64_t seed;
  bool churn;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = ProtocolKindName(info.param.kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(info.param.seed) +
         (info.param.churn ? "_churn" : "");
}

class EngineInvariantsTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  static ExperimentConfig Config(const SweepParam& param) {
    ExperimentConfig cfg = MakePaperConfig(param.kind, /*num_queries=*/250, param.seed);
    cfg.num_peers = 120;
    cfg.underlay.num_routers = 30;
    cfg.catalog.num_files = 240;
    cfg.catalog.keyword_pool_size = 720;
    cfg.workload.query_rate_per_peer_s = 0.02;
    if (param.churn) {
      cfg.churn.enabled = true;
      cfg.churn.mean_session_s = 300;
      cfg.churn.mean_offline_s = 100;
      cfg.params.ri.entry_ttl = 60 * sim::kSecond;
    }
    return cfg;
  }
};

TEST_P(EngineInvariantsTest, QuiescentStateIsClean) {
  for (uint32_t shards : {1u, 3u}) {
    ExperimentConfig cfg = Config(GetParam());
    cfg.scheduler.shards = shards;
    auto e = std::move(Engine::Create(cfg)).ValueOrDie();
    e->Run();

    // Every query was finalized and garbage-collected: no shard keeps a
    // pending entry or a per-query visit table (no GUID/reverse-path leaks).
    EXPECT_EQ(e->pending_query_count(), 0u) << shards << " shards";
    EXPECT_EQ(e->tracked_query_count(), 0u) << shards << " shards";
    EXPECT_EQ(e->metrics().records().size(), 250u);
  }
}

TEST_P(EngineInvariantsTest, MetricsAreInternallyConsistent) {
  auto e = std::move(Engine::Create(Config(GetParam()))).ValueOrDie();
  e->Run();
  for (const auto& r : e->metrics().records()) {
    if (r.success) {
      EXPECT_NE(r.source, metrics::AnswerSource::kNone);
      EXPECT_GE(r.download_distance_ms, 0.0);
      EXPECT_LE(r.download_distance_ms, 500.0);
      if (r.source != metrics::AnswerSource::kLocalStore &&
          r.source != metrics::AnswerSource::kLocalIndex) {
        // A remote answer implies at least one response message arrived.
        EXPECT_GE(r.responses_received, 1u) << "qid " << r.qid;
        EXPECT_GE(r.response_msgs, 1u) << "qid " << r.qid;
      }
    } else {
      EXPECT_EQ(r.source, metrics::AnswerSource::kNone);
    }
    // Byte accounting is never below the per-message header floor.
    EXPECT_GE(r.query_bytes, r.query_msgs * 23);
    EXPECT_GE(r.response_bytes, r.response_msgs * 23);
    // A response can only have arrived if the query left the requester (or
    // was answered locally with zero messages).
    if (r.responses_received > 0) {
      EXPECT_GT(r.query_msgs, 0u);
    }
  }
}

TEST_P(EngineInvariantsTest, IndexContentsRespectProtocolRules) {
  const SweepParam param = GetParam();
  auto e = std::move(Engine::Create(Config(param))).ValueOrDie();
  e->Run();

  for (PeerId p = 0; p < e->num_peers(); ++p) {
    const NodeState& n = e->node(p);
    if (param.kind == ProtocolKind::kFlooding || param.kind == ProtocolKind::kDht) {
      // Pure flooding and pure DHT run without any response index.
      EXPECT_EQ(n.ri, nullptr);
      continue;
    }
    ASSERT_NE(n.ri, nullptr);
    for (FileId f : n.ri->Files()) {
      // The cached keyword set must be the catalog's sorted set for f.
      EXPECT_EQ(n.ri->KeywordsOf(f), e->catalog().sorted_keywords(f))
          << "peer " << p << " file " << f;
      switch (param.kind) {
        case ProtocolKind::kDicas:
          EXPECT_EQ(GroupOfSetFnv(e->catalog().FileSetFnv(f), e->params().num_groups),
                    n.gid)
              << "peer " << p << " file " << f;
          break;
        case ProtocolKind::kDicasKeys: {
          // Cached via *some* query's keywords — which are a subset of the
          // filename's, so the node's gid must be one of the filename's
          // keyword groups.
          const auto groups = KeywordGroupsOfIds(
              n.ri->KeywordsOf(f),
              [&](KeywordId kw) { return e->catalog().KeywordFnv(kw); },
              e->params().num_groups);
          EXPECT_NE(std::find(groups.begin(), groups.end(), n.gid), groups.end())
              << "peer " << p << " file " << f;
          break;
        }
        case ProtocolKind::kLocaware:
        case ProtocolKind::kHybrid:  // hybrid's cache plane is Locaware's
          EXPECT_EQ(GroupOfSetFnv(e->catalog().FileSetFnv(f), e->params().num_groups),
                    n.gid)
              << "peer " << p << " file " << f;
          break;
        case ProtocolKind::kFlooding:
        case ProtocolKind::kDht:
          break;
      }
      // No index ever names the impossible: all providers are real peers.
      const auto hit = n.ri->LookupFile(f, e->simulator().Now() + 1);
      if (hit.has_value()) {
        for (const auto& prov : hit->providers) {
          EXPECT_LT(prov.provider, e->num_peers());
        }
      }
    }
  }
}

TEST_P(EngineInvariantsTest, LocawareBloomStaysConsistent) {
  const SweepParam param = GetParam();
  if (param.kind != ProtocolKind::kLocaware && param.kind != ProtocolKind::kHybrid) {
    GTEST_SKIP();
  }
  auto e = std::move(Engine::Create(Config(param))).ValueOrDie();
  e->Run();
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    const NodeState& n = e->node(p);
    bloom::BloomFilter rebuilt(e->params().bloom_bits, e->params().bloom_hashes);
    for (FileId f : n.ri->Files()) {
      // Rebuild from strings so string-path and precomputed-hash-path bits
      // are cross-checked end to end.
      for (KeywordId kw : n.ri->KeywordsOf(f)) rebuilt.Insert(e->catalog().keyword(kw));
    }
    EXPECT_EQ(n.keyword_filter->projection(), rebuilt) << "peer " << p;
  }
}

TEST_P(EngineInvariantsTest, QuietPeersAreMaintenanceIdle) {
  // A set quiet byte skips the protocol's tick hook, which is only sound if
  // the hook would change nothing: every write that could give a quiet peer
  // work must have woken it. Three shards put adjacent peers' bytes under
  // different worker threads.
  for (uint32_t shards : {1u, 3u}) {
    ExperimentConfig cfg = Config(GetParam());
    cfg.scheduler.shards = shards;
    auto e = std::move(Engine::Create(cfg)).ValueOrDie();
    e->Run();
    size_t quiet = 0;
    for (PeerId p = 0; p < e->num_peers(); ++p) {
      if (!e->maintenance_quiet(p)) continue;
      ++quiet;
      EXPECT_TRUE(e->protocol().MaintenanceIdle(e->node(p)))
          << "peer " << p << ", " << shards << " shards";
    }
    // The DHT-backed protocols always have tick work; the others leave most
    // peers with nothing cached.
    const bool dht_backed =
        GetParam().kind == ProtocolKind::kDht || GetParam().kind == ProtocolKind::kHybrid;
    if (dht_backed) {
      EXPECT_EQ(quiet, 0u);
    } else {
      EXPECT_GT(quiet, 0u);
    }
  }
}

TEST_P(EngineInvariantsTest, FileStoresOnlyGrowWithValidFiles) {
  auto e = std::move(Engine::Create(Config(GetParam()))).ValueOrDie();
  e->Run();
  size_t total = 0;
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    const NodeState& n = e->node(p);
    std::set<FileId> distinct(n.file_store.begin(), n.file_store.end());
    EXPECT_EQ(distinct.size(), n.file_store.size()) << "duplicate file at peer " << p;
    EXPECT_GE(n.file_store.size(), 3u);  // initial shares never vanish
    for (FileId f : n.file_store) EXPECT_LT(f, e->catalog().num_files());
    total += n.file_store.size();
  }
  // Natural replication: total stored copies = initial + successful downloads
  // that were not local-store hits.
  size_t downloads = 0;
  for (const auto& r : e->metrics().records()) {
    if (r.success && r.source != metrics::AnswerSource::kLocalStore) ++downloads;
  }
  // A requester may download a file it already had (different matching file),
  // so <= rather than ==.
  EXPECT_LE(total, 120u * 3u + downloads);
  EXPECT_GE(total, 120u * 3u);
}

TEST_P(EngineInvariantsTest, DeterministicReplay) {
  const auto run_digest = [&] {
    auto e = std::move(Engine::Create(Config(GetParam()))).ValueOrDie();
    e->Run();
    uint64_t digest = 0;
    for (const auto& r : e->metrics().records()) {
      digest = digest * 31 + r.TotalSearchMessages();
      digest = digest * 31 + static_cast<uint64_t>(r.success);
      digest = digest * 31 + static_cast<uint64_t>(r.download_distance_ms * 1000);
    }
    return digest;
  };
  EXPECT_EQ(run_digest(), run_digest());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineInvariantsTest,
    ::testing::Values(SweepParam{ProtocolKind::kFlooding, 1, false},
                      SweepParam{ProtocolKind::kFlooding, 2, true},
                      SweepParam{ProtocolKind::kDicas, 1, false},
                      SweepParam{ProtocolKind::kDicas, 2, true},
                      SweepParam{ProtocolKind::kDicasKeys, 1, false},
                      SweepParam{ProtocolKind::kDicasKeys, 3, true},
                      SweepParam{ProtocolKind::kLocaware, 1, false},
                      SweepParam{ProtocolKind::kLocaware, 2, false},
                      SweepParam{ProtocolKind::kLocaware, 3, true},
                      SweepParam{ProtocolKind::kDht, 1, false},
                      SweepParam{ProtocolKind::kDht, 2, true},
                      SweepParam{ProtocolKind::kHybrid, 1, false},
                      SweepParam{ProtocolKind::kHybrid, 2, true}),
    ParamName);

}  // namespace
}  // namespace locaware::core
