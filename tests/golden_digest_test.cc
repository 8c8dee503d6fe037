// Golden digests: the FNV-64 of core::ResultToJson for a few small seed-42
// runs, pinned in-tree. The determinism gates elsewhere prove the engine
// agrees with itself across shard counts; these prove it agrees with its own
// past. A change to the event queue, the scheduler or a protocol that is meant
// to preserve results must leave every digest here unchanged; a change meant
// to move results updates them on purpose, in the same commit.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/config_io.h"
#include "core/experiment.h"

namespace locaware::core {
namespace {

struct GoldenCase {
  const char* name;
  ProtocolKind kind;
  bool churn;
  /// Pinned digest; identical at every shard count by the determinism
  /// contract, so one value serves both parameter rows.
  uint64_t digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

constexpr GoldenCase kCases[] = {
    {"Flooding", ProtocolKind::kFlooding, false, 0xc7c111dbecd83f07},
    {"Locaware", ProtocolKind::kLocaware, false, 0x223a7d41e22aa381},
    {"LocawareChurn", ProtocolKind::kLocaware, true, 0xbbc61d1294cc6ac2},
    {"Hybrid", ProtocolKind::kHybrid, false, 0x7fda4aab509640c8},
};

/// 150 peers, 200 queries at a boosted rate: well under a second per run,
/// long enough for caches, Bloom gossip and (with churn) link repair to run.
ExperimentConfig GoldenConfig(const GoldenCase& c, uint32_t shards) {
  ExperimentConfig cfg = MakePaperConfig(c.kind, /*num_queries=*/200, /*seed=*/42);
  cfg.num_peers = 150;
  cfg.underlay.num_routers = 40;
  cfg.catalog.num_files = 300;
  cfg.catalog.keyword_pool_size = 900;
  cfg.workload.query_rate_per_peer_s = 0.01;
  cfg.scheduler.shards = shards;
  if (c.churn) {
    cfg.churn.enabled = true;
    cfg.churn.mean_session_s = 60;
    cfg.churn.mean_offline_s = 20;
    cfg.params.ri.entry_ttl = 40 * sim::kSecond;
  }
  return cfg;
}

class GoldenDigestTest
    : public ::testing::TestWithParam<std::tuple<GoldenCase, uint32_t>> {};

TEST_P(GoldenDigestTest, ResultJsonMatchesPinnedDigest) {
  const auto& [c, shards] = GetParam();
  auto run = RunExperiment(GoldenConfig(c, shards));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const uint64_t digest = Fnv1a64(ResultToJson(run.ValueOrDie()));
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
  EXPECT_EQ(digest, c.digest) << c.name << " at shards=" << shards
                              << " now digests to " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Seed42, GoldenDigestTest,
    ::testing::Combine(::testing::ValuesIn(kCases), ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<GoldenDigestTest::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_shards" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace locaware::core
