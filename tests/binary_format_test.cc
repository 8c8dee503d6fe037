// The versioned binary trace format (BINARY_FORMAT.md). Two contracts under
// test: the text and binary encodings are interchangeable (byte-identical
// text -> binary -> text round trip, byte-identical metric JSON whichever
// format replays the workload), and corrupt/truncated/mismatched files fail
// with a Status — never a crash, never a half-mutated catalog.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "catalog/file_catalog.h"
#include "catalog/workload.h"
#include "common/rng.h"
#include "core/config_io.h"
#include "core/experiment.h"

namespace locaware::catalog {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class BinaryFormatFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    CatalogConfig ccfg;
    ccfg.num_files = 300;
    ccfg.keyword_pool_size = 900;
    Rng catalog_rng(7);
    catalog_ = std::move(FileCatalog::Generate(ccfg, &catalog_rng)).ValueOrDie();
    WorkloadConfig wcfg;
    wcfg.num_queries = 400;
    Rng workload_rng(8);
    workload_ = std::move(QueryWorkload::Generate(wcfg, catalog_, /*num_peers=*/150,
                                                  &workload_rng))
                    .ValueOrDie();
  }

  std::string Temp(const std::string& name) const {
    return ::testing::TempDir() + "/locaware_binfmt_" + name;
  }

  FileCatalog catalog_;
  QueryWorkload workload_;
};

TEST_F(BinaryFormatFixture, TextToBinaryToTextIsByteIdentical) {
  // The `locaware_cli convert` path: each hop through a scratch catalog must
  // preserve the stream exactly, so text -> binary -> text reproduces the
  // original file byte for byte.
  const std::string text1 = Temp("rt1.trace");
  const std::string bin = Temp("rt.bin");
  const std::string text2 = Temp("rt2.trace");
  ASSERT_TRUE(workload_.SaveTrace(text1, catalog_).ok());

  FileCatalog scratch1;
  auto loaded_text = QueryWorkload::LoadAuto(text1, &scratch1);
  ASSERT_TRUE(loaded_text.ok()) << loaded_text.status().ToString();
  ASSERT_TRUE(loaded_text.ValueOrDie().SaveBinary(bin, scratch1).ok());

  FileCatalog scratch2;
  auto loaded_bin = QueryWorkload::LoadAuto(bin, &scratch2);
  ASSERT_TRUE(loaded_bin.ok()) << loaded_bin.status().ToString();
  ASSERT_TRUE(loaded_bin.ValueOrDie().SaveTrace(text2, scratch2).ok());

  EXPECT_EQ(ReadFileBytes(text1), ReadFileBytes(text2));
  std::remove(text1.c_str());
  std::remove(bin.c_str());
  std::remove(text2.c_str());
}

TEST_F(BinaryFormatFixture, BinaryReplayMatchesTheOriginalStream) {
  const std::string path = Temp("stream.bin");
  ASSERT_TRUE(workload_.SaveBinary(path, catalog_).ok());
  // Loading through the *same* catalog resolves to the same ids, so every
  // field must match the generated stream exactly.
  auto loaded = QueryWorkload::LoadBinary(path, &catalog_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& replay = loaded.ValueOrDie().queries();
  ASSERT_EQ(replay.size(), workload_.queries().size());
  for (size_t i = 0; i < replay.size(); ++i) {
    const QueryEvent& a = workload_.queries()[i];
    const QueryEvent& b = replay[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.requester, b.requester);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.submit_time, b.submit_time);
    EXPECT_EQ(a.keywords, b.keywords);
  }
  std::remove(path.c_str());
}

TEST_F(BinaryFormatFixture, LoadAutoSniffsBothFormats) {
  const std::string text = Temp("auto.trace");
  const std::string bin = Temp("auto.bin");
  ASSERT_TRUE(workload_.SaveTrace(text, catalog_).ok());
  ASSERT_TRUE(workload_.SaveBinary(bin, catalog_).ok());
  auto from_text = QueryWorkload::LoadAuto(text, &catalog_);
  auto from_bin = QueryWorkload::LoadAuto(bin, &catalog_);
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(from_bin.ok());
  ASSERT_EQ(from_text.ValueOrDie().queries().size(),
            from_bin.ValueOrDie().queries().size());
  for (size_t i = 0; i < from_text.ValueOrDie().queries().size(); ++i) {
    EXPECT_EQ(from_text.ValueOrDie().queries()[i].keywords,
              from_bin.ValueOrDie().queries()[i].keywords);
  }
  std::remove(text.c_str());
  std::remove(bin.c_str());
}

TEST_F(BinaryFormatFixture, RejectsCorruptHeadersWithoutCrashing) {
  const std::string path = Temp("corrupt.bin");
  ASSERT_TRUE(workload_.SaveBinary(path, catalog_).ok());
  const std::string good = ReadFileBytes(path);
  ASSERT_GT(good.size(), 50u);

  // Wrong magic: not even recognizably a trace.
  std::string bad = good;
  bad[0] = 'X';
  WriteFileBytes(path, bad);
  FileCatalog scratch;
  EXPECT_FALSE(QueryWorkload::LoadBinary(path, &scratch).ok());
  // LoadAuto falls through to the text parser, which must also reject it.
  EXPECT_FALSE(QueryWorkload::LoadAuto(path, &scratch).ok());

  // Future version: refuse rather than misparse.
  bad = good;
  bad[8] = static_cast<char>(99);
  WriteFileBytes(path, bad);
  EXPECT_FALSE(QueryWorkload::LoadBinary(path, &scratch).ok());

  // Truncations at every section boundary flavor: header, counts, payload.
  for (size_t keep : {size_t{4}, size_t{11}, size_t{20}, good.size() / 2,
                      good.size() - 1}) {
    WriteFileBytes(path, good.substr(0, keep));
    EXPECT_FALSE(QueryWorkload::LoadBinary(path, &scratch).ok()) << keep;
  }

  // Trailing garbage breaks the exact-size tiling check.
  WriteFileBytes(path, good + "x");
  EXPECT_FALSE(QueryWorkload::LoadBinary(path, &scratch).ok());

  // Hostile header: a record count far beyond the file must be rejected
  // before any allocation is sized by it (overflow-guarded bounds).
  bad = good;
  for (size_t i = 0; i < 8; ++i) bad[12 + 24 + i] = static_cast<char>(0xFF);
  WriteFileBytes(path, bad);
  EXPECT_FALSE(QueryWorkload::LoadBinary(path, &scratch).ok());

  // Nothing above minted anything into the scratch catalog.
  EXPECT_EQ(scratch.num_keywords(), 0u);

  // Empty and missing files.
  WriteFileBytes(path, "");
  EXPECT_FALSE(QueryWorkload::LoadBinary(path, &scratch).ok());
  EXPECT_FALSE(QueryWorkload::LoadAuto("/nonexistent/locaware.bin", &scratch).ok());
  std::remove(path.c_str());
}

// The end-to-end contract the format exists for: one experiment, seed 42,
// workload replayed once from a text trace and once from its binary
// encoding — the metric JSON must match byte for byte (the binary row also
// runs sharded, crossing format against shard count).
TEST(BinaryFormatExperimentTest, MetricJsonIsByteIdenticalAcrossTraceFormats) {
  core::ExperimentConfig cfg =
      core::MakePaperConfig(core::ProtocolKind::kDicas, /*num_queries=*/400,
                            /*seed=*/42);
  cfg.num_peers = 200;
  cfg.underlay.num_routers = 50;
  cfg.catalog.num_files = 500;
  cfg.catalog.keyword_pool_size = 1500;
  cfg.workload.query_rate_per_peer_s = 0.01;

  // Regenerate catalog + workload exactly as Engine::Setup will (same
  // name-keyed splits), then persist the stream in both formats.
  Rng root(cfg.seed);
  Rng catalog_rng = root.Split("catalog");
  auto catalog = std::move(FileCatalog::Generate(cfg.catalog, &catalog_rng))
                     .ValueOrDie();
  Rng workload_rng = root.Split("workload");
  auto workload = std::move(QueryWorkload::Generate(cfg.workload, catalog,
                                                    cfg.num_peers, &workload_rng))
                      .ValueOrDie();
  const std::string text = ::testing::TempDir() + "/locaware_binfmt_e2e.trace";
  const std::string bin = ::testing::TempDir() + "/locaware_binfmt_e2e.bin";
  ASSERT_TRUE(workload.SaveTrace(text, catalog).ok());
  ASSERT_TRUE(workload.SaveBinary(bin, catalog).ok());

  cfg.trace_path = text;
  auto from_text = core::RunExperiment(cfg, /*buckets=*/5);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();

  cfg.trace_path = bin;
  cfg.scheduler.shards = 4;
  auto from_bin = core::RunExperiment(cfg, /*buckets=*/5);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();

  EXPECT_EQ(core::ResultToJson(from_text.ValueOrDie()),
            core::ResultToJson(from_bin.ValueOrDie()));
  std::remove(text.c_str());
  std::remove(bin.c_str());
}

}  // namespace
}  // namespace locaware::catalog
