#include "core/config_io.h"

#include <cstdio>

#include <gtest/gtest.h>

namespace locaware::core {
namespace {

TEST(ConfigIoTest, FormatParseRoundTripDefaults) {
  const ExperimentConfig original = MakePaperConfig(ProtocolKind::kLocaware);
  auto parsed = ParseConfig(FormatConfig(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ExperimentConfig& c = parsed.ValueOrDie();
  EXPECT_EQ(c.protocol, original.protocol);
  EXPECT_EQ(c.num_peers, original.num_peers);
  EXPECT_EQ(c.seed, original.seed);
  EXPECT_EQ(c.workload.num_queries, original.workload.num_queries);
  EXPECT_EQ(c.params.ttl, original.params.ttl);
  EXPECT_EQ(c.params.bloom_bits, original.params.bloom_bits);
  EXPECT_EQ(c.params.ri.max_filenames, original.params.ri.max_filenames);
  EXPECT_EQ(c.params.ri.max_providers_per_file,
            original.params.ri.max_providers_per_file);
}

TEST(ConfigIoTest, RoundTripNonDefaultEverything) {
  ExperimentConfig original = MakePaperConfig(ProtocolKind::kDicasKeys, 1234, 99);
  original.label = "custom run";
  original.num_peers = 321;
  original.avg_degree = 4.5;
  original.num_landmarks = 5;
  original.use_uniform_underlay = true;
  original.underlay.num_routers = 77;
  original.underlay.model = net::RouterGraphModel::kBarabasiAlbert;
  original.underlay.min_rtt_ms = 20;
  original.underlay.max_rtt_ms = 300;
  original.files_per_peer = 7;
  original.catalog.num_files = 555;
  original.catalog.keyword_pool_size = 1111;
  original.catalog.keywords_per_file = 4;
  original.workload.zipf_exponent = 0.8;
  original.workload.query_rate_per_peer_s = 0.5;
  original.workload.min_query_keywords = 2;
  original.workload.max_query_keywords = 4;
  original.churn.enabled = true;
  original.churn.mean_session_s = 111;
  original.churn.mean_offline_s = 22;
  original.churn.rejoin_links = 5;
  original.params.ttl = 9;
  original.params.num_groups = 8;
  original.params.fallback_fanout = 3;
  original.params.bloom_bits = 2400;
  original.params.bloom_hashes = 6;
  original.params.maintenance_interval = 42 * sim::kSecond;
  original.params.query_deadline = 9 * sim::kSecond;
  original.params.max_response_providers = 5;
  original.params.requester_becomes_provider = false;
  original.params.loc_aware_routing = true;
  original.params.selection = SelectionStrategy::kMinRtt;
  original.params.dht_successors = 6;
  original.params.dht_fingers = 16;
  original.params.dht_republish_interval = 120 * sim::kSecond;
  original.params.ri.max_filenames = 99;
  original.params.ri.max_providers_per_file = 3;
  original.params.ri.entry_ttl = 77 * sim::kSecond;
  original.params.ri.eviction = cache::EvictionPolicy::kRandom;
  original.scheduler.shards = 6;
  original.scheduler.workers = 3;
  original.scheduler.work_stealing = false;
  original.scheduler.placement = sim::PlacementStrategy::kClustered;
  original.scheduler.event_reserve_hint = 4096;

  auto parsed = ParseConfig(FormatConfig(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ExperimentConfig& c = parsed.ValueOrDie();
  EXPECT_EQ(c.label, "custom run");
  EXPECT_EQ(c.protocol, ProtocolKind::kDicasKeys);
  EXPECT_EQ(c.num_peers, 321u);
  EXPECT_DOUBLE_EQ(c.avg_degree, 4.5);
  EXPECT_EQ(c.num_landmarks, 5u);
  EXPECT_TRUE(c.use_uniform_underlay);
  EXPECT_EQ(c.underlay.num_routers, 77u);
  EXPECT_EQ(c.underlay.model, net::RouterGraphModel::kBarabasiAlbert);
  EXPECT_DOUBLE_EQ(c.underlay.min_rtt_ms, 20);
  EXPECT_DOUBLE_EQ(c.underlay.max_rtt_ms, 300);
  EXPECT_EQ(c.files_per_peer, 7u);
  EXPECT_EQ(c.catalog.num_files, 555u);
  EXPECT_EQ(c.catalog.keywords_per_file, 4u);
  EXPECT_DOUBLE_EQ(c.workload.zipf_exponent, 0.8);
  EXPECT_TRUE(c.churn.enabled);
  EXPECT_EQ(c.churn.rejoin_links, 5u);
  EXPECT_EQ(c.params.ttl, 9u);
  EXPECT_EQ(c.params.num_groups, 8u);
  EXPECT_EQ(c.params.fallback_fanout, 3u);
  EXPECT_EQ(c.params.maintenance_interval, 42 * sim::kSecond);
  EXPECT_EQ(c.params.query_deadline, 9 * sim::kSecond);
  EXPECT_FALSE(c.params.requester_becomes_provider);
  EXPECT_TRUE(c.params.loc_aware_routing);
  ASSERT_TRUE(c.params.selection.has_value());
  EXPECT_EQ(*c.params.selection, SelectionStrategy::kMinRtt);
  EXPECT_EQ(c.params.dht_successors, 6u);
  EXPECT_EQ(c.params.dht_fingers, 16u);
  EXPECT_EQ(c.params.dht_republish_interval, 120 * sim::kSecond);
  EXPECT_EQ(c.params.ri.max_filenames, 99u);
  EXPECT_EQ(c.params.ri.entry_ttl, 77 * sim::kSecond);
  EXPECT_EQ(c.params.ri.eviction, cache::EvictionPolicy::kRandom);
  EXPECT_EQ(c.scheduler.shards, 6u);
  EXPECT_EQ(c.scheduler.workers, 3u);
  EXPECT_FALSE(c.scheduler.work_stealing);
  EXPECT_EQ(c.scheduler.placement, sim::PlacementStrategy::kClustered);
  EXPECT_EQ(c.scheduler.event_reserve_hint, 4096u);
}

TEST(ConfigIoTest, FlatSchedulerKeysAreRejected) {
  // The pre-SchedulerConfig flat spellings are gone: only the scheduler.*
  // keys set these fields.
  for (const char* line : {"shards = 4\n", "workers = 2\n", "work_stealing = false\n",
                           "event_reserve_hint = 512\n"}) {
    auto parsed = ParseConfig(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_NE(parsed.status().ToString().find("unknown key"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ConfigIoTest, RejectsUnknownPlacement) {
  EXPECT_FALSE(ParseConfig("scheduler.placement = random\n").ok());
}

TEST(ParsePlacementStrategyTest, AllNamesAndCases) {
  EXPECT_EQ(ParsePlacementStrategy("modulo").ValueOrDie(),
            sim::PlacementStrategy::kModulo);
  EXPECT_EQ(ParsePlacementStrategy("Clustered").ValueOrDie(),
            sim::PlacementStrategy::kClustered);
  EXPECT_EQ(ParsePlacementStrategy("CLUSTERED").ValueOrDie(),
            sim::PlacementStrategy::kClustered);
  EXPECT_FALSE(ParsePlacementStrategy("spectral").ok());
}

TEST(ConfigIoTest, TracePathRoundTrips) {
  ExperimentConfig original = MakePaperConfig(ProtocolKind::kLocaware);
  original.trace_path = "/data/run1.trace";
  auto parsed = ParseConfig(FormatConfig(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().trace_path, "/data/run1.trace");
  // Empty trace_path is simply omitted from the serialization.
  original.trace_path.clear();
  EXPECT_EQ(FormatConfig(original).find("trace_path"), std::string::npos);
}

TEST(ConfigIoTest, CommentsAndBlankLinesIgnored) {
  auto parsed = ParseConfig(
      "# a comment\n"
      "\n"
      "num_peers = 10  # trailing comment\n"
      "   \t  \n"
      "seed = 5\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().num_peers, 10u);
  EXPECT_EQ(parsed.ValueOrDie().seed, 5u);
}

TEST(ConfigIoTest, UnspecifiedFieldsKeepDefaults) {
  auto parsed = ParseConfig("protocol = dicas\n");
  ASSERT_TRUE(parsed.ok());
  const ExperimentConfig& c = parsed.ValueOrDie();
  EXPECT_EQ(c.protocol, ProtocolKind::kDicas);
  EXPECT_EQ(c.num_peers, 1000u);  // default intact
  EXPECT_EQ(c.params.ttl, 7u);
}

TEST(ConfigIoTest, RejectsUnknownKey) {
  auto parsed = ParseConfig("no_such_knob = 1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("no_such_knob"), std::string::npos);
}

TEST(ConfigIoTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseConfig("num_peers 10\n").ok());     // no '='
  EXPECT_FALSE(ParseConfig("= 10\n").ok());             // empty key
  EXPECT_FALSE(ParseConfig("num_peers =\n").ok());      // empty value
  EXPECT_FALSE(ParseConfig("num_peers = ten\n").ok());  // not a number
  EXPECT_FALSE(ParseConfig("avg_degree = 3..0\n").ok());
  EXPECT_FALSE(ParseConfig("churn.enabled = maybe\n").ok());
  EXPECT_FALSE(ParseConfig("protocol = gnutella2\n").ok());
  EXPECT_FALSE(ParseConfig("ri.eviction = mru\n").ok());
  EXPECT_FALSE(ParseConfig("underlay.model = ring\n").ok());
  EXPECT_FALSE(ParseConfig("params.selection = psychic\n").ok());
}

TEST(ConfigIoTest, SaveLoadFile) {
  const std::string path = ::testing::TempDir() + "/locaware_cfg_test.cfg";
  ExperimentConfig original = MakePaperConfig(ProtocolKind::kFlooding, 77, 3);
  ASSERT_TRUE(SaveConfig(original, path).ok());
  auto loaded = LoadConfig(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().protocol, ProtocolKind::kFlooding);
  EXPECT_EQ(loaded.ValueOrDie().workload.num_queries, 77u);
  EXPECT_EQ(loaded.ValueOrDie().seed, 3u);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadConfig(path).ok());
}

TEST(ParseProtocolKindTest, AllNamesAndCases) {
  EXPECT_EQ(ParseProtocolKind("flooding").ValueOrDie(), ProtocolKind::kFlooding);
  EXPECT_EQ(ParseProtocolKind("Dicas").ValueOrDie(), ProtocolKind::kDicas);
  EXPECT_EQ(ParseProtocolKind("DICAS-KEYS").ValueOrDie(), ProtocolKind::kDicasKeys);
  EXPECT_EQ(ParseProtocolKind("dicaskeys").ValueOrDie(), ProtocolKind::kDicasKeys);
  EXPECT_EQ(ParseProtocolKind("Locaware").ValueOrDie(), ProtocolKind::kLocaware);
  EXPECT_EQ(ParseProtocolKind("dht").ValueOrDie(), ProtocolKind::kDht);
  EXPECT_EQ(ParseProtocolKind("DHT").ValueOrDie(), ProtocolKind::kDht);
  EXPECT_EQ(ParseProtocolKind("Hybrid").ValueOrDie(), ProtocolKind::kHybrid);
  EXPECT_FALSE(ParseProtocolKind("napster").ok());
}

TEST(ConfigIoTest, DhtProtocolsRoundTripThroughSerialization) {
  for (ProtocolKind kind : {ProtocolKind::kDht, ProtocolKind::kHybrid}) {
    ExperimentConfig original = MakePaperConfig(kind, 50, 11);
    original.params.dht_republish_interval = 90 * sim::kSecond;
    auto parsed = ParseConfig(FormatConfig(original));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.ValueOrDie().protocol, kind);
    EXPECT_EQ(parsed.ValueOrDie().params.dht_republish_interval, 90 * sim::kSecond);
  }
}

TEST(ParseSelectionStrategyTest, AllNames) {
  EXPECT_EQ(ParseSelectionStrategy("locid-then-rtt").ValueOrDie(),
            SelectionStrategy::kLocIdThenRtt);
  EXPECT_EQ(ParseSelectionStrategy("min-rtt").ValueOrDie(), SelectionStrategy::kMinRtt);
  EXPECT_EQ(ParseSelectionStrategy("random").ValueOrDie(), SelectionStrategy::kRandom);
  EXPECT_EQ(ParseSelectionStrategy("first-responder").ValueOrDie(),
            SelectionStrategy::kFirstResponder);
  EXPECT_FALSE(ParseSelectionStrategy("closest").ok());
}

TEST(ResultToJsonTest, ContainsSummaryAndSeries) {
  ExperimentResult result;
  result.label = "Locaware";
  result.summary.num_queries = 100;
  result.summary.success_rate = 0.25;
  result.summary.msgs_per_query = 40.5;
  metrics::BucketPoint p;
  p.queries_end = 50;
  p.success_rate = 0.2;
  result.series.push_back(p);
  p.queries_end = 100;
  p.success_rate = 0.3;
  result.series.push_back(p);

  const std::string json = ResultToJson(result);
  EXPECT_NE(json.find("\"label\": \"Locaware\""), std::string::npos);
  EXPECT_NE(json.find("\"num_queries\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"success_rate\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"queries_end\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"queries_end\": 100"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ConfigIoTest, PatchViaAppendedLineWinsLast) {
  // The CLI's --set mechanism: append an override line to a serialized
  // config; the last assignment wins.
  ExperimentConfig base = MakePaperConfig(ProtocolKind::kLocaware);
  auto patched = ParseConfig(FormatConfig(base) + "\nparams.ttl = 3\n");
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched.ValueOrDie().params.ttl, 3u);
}

}  // namespace
}  // namespace locaware::core
