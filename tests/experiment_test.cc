// End-to-end shape tests: scaled-down versions of the paper's three figures.
// These assert the *qualitative* results (who wins, roughly by how much), not
// absolute numbers — the same standard EXPERIMENTS.md applies to the full
// benches.
#include "core/experiment.h"

#include <future>

#include "core/config_io.h"

#include <gtest/gtest.h>

namespace locaware::core {
namespace {

ExperimentConfig ShapeConfig(ProtocolKind kind, uint64_t seed = 11) {
  // Small but not tiny: enough queries for caches to warm up and the Zipf
  // head to repeat often (Locaware's mechanisms compound with query volume).
  ExperimentConfig cfg = MakePaperConfig(kind, /*num_queries=*/1500, seed);
  cfg.num_peers = 250;
  cfg.underlay.num_routers = 60;
  cfg.catalog.num_files = 600;
  cfg.catalog.keyword_pool_size = 1800;
  cfg.workload.query_rate_per_peer_s = 0.01;
  return cfg;
}

class ShapeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (ProtocolKind kind :
         {ProtocolKind::kFlooding, ProtocolKind::kDicas, ProtocolKind::kDicasKeys,
          ProtocolKind::kLocaware}) {
      results_[static_cast<int>(kind)] =
          std::move(RunExperiment(ShapeConfig(kind), /*num_buckets=*/6)).ValueOrDie();
    }
  }

  static const ExperimentResult& Of(ProtocolKind kind) {
    return results_[static_cast<int>(kind)];
  }

  static ExperimentResult results_[4];
};

ExperimentResult ShapeFixture::results_[4];

TEST_F(ShapeFixture, Fig3Shape_CachingSlashesSearchTraffic) {
  const double flooding = Of(ProtocolKind::kFlooding).summary.msgs_per_query;
  const double locaware = Of(ProtocolKind::kLocaware).summary.msgs_per_query;
  const double dicas = Of(ProtocolKind::kDicas).summary.msgs_per_query;
  // Paper: "outperforms flooding by 98%". At this scale we require >= 90%.
  EXPECT_LT(locaware, flooding * 0.10);
  EXPECT_LT(dicas, flooding * 0.10);
}

TEST_F(ShapeFixture, Fig4Shape_FloodingHasBestSuccessRate) {
  const double flooding = Of(ProtocolKind::kFlooding).summary.success_rate;
  for (ProtocolKind kind :
       {ProtocolKind::kDicas, ProtocolKind::kDicasKeys, ProtocolKind::kLocaware}) {
    EXPECT_GE(flooding, Of(kind).summary.success_rate)
        << ProtocolKindName(kind);
  }
  EXPECT_GT(flooding, 0.4);
}

TEST_F(ShapeFixture, Fig4Shape_LocawareBeatsDicasVariants) {
  // At this compressed scale success rates sit near the placement ceiling and
  // protocol gaps shrink; require a strict win over Dicas and near-parity
  // with Dicas-Keys. The strict paper-scale ordering is asserted in
  // Fig4Shape_PaperScaleOrdering below (and by bench/fig4_success_rate).
  const double locaware = Of(ProtocolKind::kLocaware).summary.success_rate;
  EXPECT_GT(locaware, Of(ProtocolKind::kDicas).summary.success_rate);
  EXPECT_GT(locaware, Of(ProtocolKind::kDicasKeys).summary.success_rate * 0.9);
}

TEST(PaperScaleTest, Fig4Shape_PaperScaleOrdering) {
  // Full §5.1 scale (flooding excluded — it is covered by ShapeFixture and
  // would dominate the runtime). Locaware must beat both Dicas variants.
  auto run = [](ProtocolKind kind) {
    return std::async(std::launch::async, [kind] {
      return std::move(
                 RunExperiment(MakePaperConfig(kind, /*num_queries=*/6000, 42), 4))
          .ValueOrDie();
    });
  };
  auto dicas_f = run(ProtocolKind::kDicas);
  auto keys_f = run(ProtocolKind::kDicasKeys);
  auto locaware_f = run(ProtocolKind::kLocaware);
  const double dicas = dicas_f.get().summary.success_rate;
  const double keys = keys_f.get().summary.success_rate;
  const auto locaware = locaware_f.get();
  EXPECT_GT(locaware.summary.success_rate, dicas);
  EXPECT_GT(locaware.summary.success_rate, keys);
  // Paper: +23% over Dicas; accept a generous band around it.
  EXPECT_GT(locaware.summary.success_rate / dicas, 1.05);
}

TEST_F(ShapeFixture, Fig2Shape_LocawareDownloadsCloser) {
  const double locaware = Of(ProtocolKind::kLocaware).summary.avg_download_ms;
  const double flooding = Of(ProtocolKind::kFlooding).summary.avg_download_ms;
  ASSERT_GT(locaware, 0.0);
  ASSERT_GT(flooding, 0.0);
  // Paper: ~14% closer; require any strict improvement at this small scale.
  EXPECT_LT(locaware, flooding);
}

TEST_F(ShapeFixture, Fig2Shape_LocawareFindsSameLocalityProviders) {
  EXPECT_GT(Of(ProtocolKind::kLocaware).summary.loc_match_rate,
            Of(ProtocolKind::kFlooding).summary.loc_match_rate);
}

TEST_F(ShapeFixture, LocawareAnswersFromCaches) {
  EXPECT_GT(Of(ProtocolKind::kLocaware).summary.cache_answer_share, 0.05);
  EXPECT_EQ(Of(ProtocolKind::kFlooding).summary.cache_answer_share, 0.0);
}

TEST_F(ShapeFixture, SeriesHaveRequestedResolution) {
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(results_[k].series.size(), 6u);
    EXPECT_EQ(results_[k].series.back().queries_end, 1500u);
  }
}

TEST(RunExperimentTest, PropagatesCreationErrors) {
  ExperimentConfig cfg = ShapeConfig(ProtocolKind::kLocaware);
  cfg.num_landmarks = 0;
  EXPECT_FALSE(RunExperiment(cfg).ok());
}

TEST(RunExperimentTest, LabelDefaultsToProtocolName) {
  ExperimentConfig cfg = ShapeConfig(ProtocolKind::kDicas);
  cfg.label.clear();
  cfg.workload.num_queries = 50;
  auto result = std::move(RunExperiment(cfg, 2)).ValueOrDie();
  EXPECT_EQ(result.label, "Dicas");
}

TEST(RunExperimentTest, CustomLabelIsKept) {
  ExperimentConfig cfg = ShapeConfig(ProtocolKind::kDicas);
  cfg.label = "Dicas-M8";
  cfg.workload.num_queries = 50;
  auto result = std::move(RunExperiment(cfg, 2)).ValueOrDie();
  EXPECT_EQ(result.label, "Dicas-M8");
}

TEST(ExperimentTest, RunExperimentsMatchesRunExperimentPerConfig) {
  std::vector<ExperimentConfig> configs;
  for (ProtocolKind kind : {ProtocolKind::kFlooding, ProtocolKind::kDicasKeys,
                            ProtocolKind::kLocaware, ProtocolKind::kHybrid}) {
    ExperimentConfig cfg = ShapeConfig(kind);
    cfg.workload.num_queries = 120;
    configs.push_back(cfg);
  }
  configs[2].scheduler.shards = 2;
  ExperimentConfig rejected = ShapeConfig(ProtocolKind::kDicas);
  rejected.num_peers = 0;
  configs.insert(configs.begin() + 1, rejected);

  const auto runs = RunExperiments(configs, /*num_buckets=*/3);
  ASSERT_EQ(runs.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    const auto sequential = RunExperiment(configs[i], /*num_buckets=*/3);
    ASSERT_EQ(runs[i].ok(), sequential.ok()) << "slot " << i;
    if (!sequential.ok()) {
      EXPECT_EQ(runs[i].status().ToString(), sequential.status().ToString());
      continue;
    }
    EXPECT_EQ(ResultToJson(runs[i].ValueOrDie()), ResultToJson(sequential.ValueOrDie()))
        << "slot " << i;
  }
  EXPECT_FALSE(runs[1].ok());
  EXPECT_TRUE(RunExperiments({}).empty());
}

TEST(MakePaperConfigTest, MatchesSection51) {
  const ExperimentConfig cfg = MakePaperConfig(ProtocolKind::kLocaware);
  EXPECT_EQ(cfg.num_peers, 1000u);
  EXPECT_EQ(cfg.avg_degree, 3.0);
  EXPECT_EQ(cfg.num_landmarks, 4u);
  EXPECT_EQ(cfg.files_per_peer, 3u);
  EXPECT_EQ(cfg.catalog.num_files, 3000u);
  EXPECT_EQ(cfg.catalog.keyword_pool_size, 9000u);
  EXPECT_EQ(cfg.catalog.keywords_per_file, 3u);
  EXPECT_EQ(cfg.workload.query_rate_per_peer_s, 0.00083);
  EXPECT_EQ(cfg.params.ttl, 7u);
  EXPECT_EQ(cfg.params.bloom_bits, 1200u);
  EXPECT_EQ(cfg.underlay.min_rtt_ms, 10.0);
  EXPECT_EQ(cfg.underlay.max_rtt_ms, 500.0);
  EXPECT_EQ(cfg.params.ri.max_filenames, 50u);
  EXPECT_EQ(cfg.params.ri.max_providers_per_file, 8u);
}

TEST(MakePaperConfigTest, DicasKeepsSingleProvider) {
  EXPECT_EQ(MakePaperConfig(ProtocolKind::kDicas).params.ri.max_providers_per_file, 1u);
  EXPECT_EQ(MakePaperConfig(ProtocolKind::kDicasKeys).params.ri.max_providers_per_file,
            1u);
}

}  // namespace
}  // namespace locaware::core
