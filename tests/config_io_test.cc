#include "core/config_io.h"

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace locaware::core {
namespace {

/// A default config with `value` applied through `key`'s row of the table.
ExperimentConfig Set(std::string_view key, std::string_view value) {
  ExperimentConfig c;
  const Status st = SetConfigValue(&c, key, value);
  EXPECT_TRUE(st.ok()) << key << " = " << value << ": " << st.ToString();
  return c;
}

bool Accepts(std::string_view key, std::string_view value) {
  ExperimentConfig c;
  return SetConfigValue(&c, key, value).ok();
}

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
  original.scheduler.placement = sim::PlacementStrategy::kClustered;

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
  EXPECT_EQ(c.scheduler.placement, sim::PlacementStrategy::kClustered);
}

TEST(ConfigIoTest, FlatSchedulerKeysAreRejected) {
  // The pre-SchedulerConfig flat spellings are gone: only the scheduler.*
  // keys set these fields. The stealing and reserve-hint knobs are gone
  // under both spellings: stealing is always on, and the engine derives the
  // event reserve from the workload.
  for (const char* line : {"shards = 4\n", "workers = 2\n", "work_stealing = false\n",
                           "event_reserve_hint = 512\n",
                           "scheduler.work_stealing = false\n",
                           "scheduler.event_reserve_hint = 512\n"}) {
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
  EXPECT_EQ(Set("scheduler.placement", "modulo").scheduler.placement,
            sim::PlacementStrategy::kModulo);
  EXPECT_EQ(Set("scheduler.placement", "Clustered").scheduler.placement,
            sim::PlacementStrategy::kClustered);
  EXPECT_EQ(Set("scheduler.placement", "CLUSTERED").scheduler.placement,
            sim::PlacementStrategy::kClustered);
  EXPECT_FALSE(Accepts("scheduler.placement", "spectral"));
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

/// Succeeds when `key = value` fails to parse with an InvalidArgument that
/// names the key.
::testing::AssertionResult Rejected(const std::string& key, const std::string& value) {
  auto parsed = ParseConfig(key + " = " + value + "\n");
  if (parsed.ok()) return ::testing::AssertionFailure() << key << "=" << value;
  if (parsed.status().code() != StatusCode::kInvalidArgument ||
      parsed.status().message().find(key) == std::string::npos) {
    return ::testing::AssertionFailure() << parsed.status().ToString();
  }
  return ::testing::AssertionSuccess();
}

TEST(ConfigIoTest, RejectsNegativeAndOutOfRangeIntegers) {
  // Each key narrower than 64 bits takes its type's max and rejects max + 1
  // by name, instead of truncating it (4294967300 used to load as 4).
  auto max32 = ParseConfig(
      "scheduler.shards = 4294967295\nscheduler.workers = 4294967295\n"
      "params.ttl = 4294967295\nparams.num_groups = 65535\n");
  ASSERT_TRUE(max32.ok()) << max32.status().ToString();
  EXPECT_EQ(max32.ValueOrDie().scheduler.shards, 4294967295u);
  EXPECT_EQ(max32.ValueOrDie().scheduler.workers, 4294967295u);
  EXPECT_EQ(max32.ValueOrDie().params.ttl, 4294967295u);
  EXPECT_EQ(max32.ValueOrDie().params.num_groups, 65535u);
  for (const char* key : {"scheduler.shards", "scheduler.workers", "params.ttl"}) {
    EXPECT_TRUE(Rejected(key, "4294967296"));
    EXPECT_TRUE(Rejected(key, "4294967300"));
  }
  EXPECT_TRUE(Rejected("params.num_groups", "65536"));
  EXPECT_TRUE(Rejected("params.num_groups", "65537"));

  // 64-bit keys: 2^64 - 1 loads, 2^64 overflows, and no key takes a sign.
  auto max64 = ParseConfig("seed = 18446744073709551615\n");
  ASSERT_TRUE(max64.ok()) << max64.status().ToString();
  EXPECT_EQ(max64.ValueOrDie().seed, 18446744073709551615u);
  EXPECT_TRUE(Rejected("seed", "18446744073709551616"));
  EXPECT_TRUE(Rejected("num_peers", "-5"));
  EXPECT_TRUE(Rejected("num_peers", "-0"));
  EXPECT_TRUE(Rejected("params.ttl", "-1"));
  EXPECT_TRUE(Rejected("dht.republish_interval_ms", "-1"));
}

TEST(ConfigIoTest, RejectsNonFiniteNegativeAndOverflowingDurations) {
  // Durations become int64 microseconds; NaN, infinities, negatives and
  // anything past INT64_MAX us used to reach an undefined double-to-int64
  // cast (nan and 1e300 seconds saved back as -9.223372037e+12).
  for (const char* key : {"params.maintenance_interval_s", "params.query_deadline_s",
                          "ri.entry_ttl_s", "dht.republish_interval_ms"}) {
    for (const char* value : {"nan", "inf", "-inf", "-1"}) {
      EXPECT_TRUE(Rejected(key, value));
    }
  }
  // INT64_MAX us is 9223372036854.775807 s: the whole second below it
  // loads, the one above it does not.
  for (const char* key : {"params.maintenance_interval_s", "params.query_deadline_s",
                          "ri.entry_ttl_s"}) {
    EXPECT_TRUE(Rejected(key, "9223372036855"));
    EXPECT_TRUE(Rejected(key, "1e300"));
    auto parsed = ParseConfig(std::string(key) + " = 9223372036854\n");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
  // 9e12 s is 9e18 us, exact in a double all the way through.
  auto s = ParseConfig("ri.entry_ttl_s = 9000000000000\n");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s.ValueOrDie().params.ri.entry_ttl, 9000000000000 * sim::kSecond);
  EXPECT_TRUE(Rejected("dht.republish_interval_ms", "9223372036854776"));
  EXPECT_TRUE(Rejected("dht.republish_interval_ms", "18446744073709551615"));
  auto ms = ParseConfig("dht.republish_interval_ms = 9223372036854\n");
  ASSERT_TRUE(ms.ok()) << ms.status().ToString();
  EXPECT_EQ(ms.ValueOrDie().params.dht_republish_interval,
            9223372036854 * sim::kMillisecond);
}

TEST(ConfigIoTest, DurationsAndDoublesReadBackExactly) {
  // Plain decimal seconds and whole milliseconds convert in integers, so the
  // largest duration loads and saves to the same microsecond (ten digits
  // would print 9223372036854 s as 9.223372037e+12, past the limit).
  auto max_s = ParseConfig("ri.entry_ttl_s = 9223372036854.775807\n");
  ASSERT_TRUE(max_s.ok()) << max_s.status().ToString();
  EXPECT_EQ(max_s.ValueOrDie().params.ri.entry_ttl, INT64_MAX);
  EXPECT_TRUE(Rejected("ri.entry_ttl_s", "9223372036854.775808"));
  auto max_ms = ParseConfig("dht.republish_interval_ms = 9223372036854775\n");
  ASSERT_TRUE(max_ms.ok()) << max_ms.status().ToString();
  EXPECT_EQ(max_ms.ValueOrDie().params.dht_republish_interval,
            9223372036854775 * sim::kMillisecond);
  auto rounded = ParseConfig("params.query_deadline_s = 1.0000005\n");
  ASSERT_TRUE(rounded.ok()) << rounded.status().ToString();
  EXPECT_EQ(rounded.ValueOrDie().params.query_deadline, sim::kSecond + 1);

  ExperimentConfig original = MakePaperConfig(ProtocolKind::kLocaware);
  original.params.ri.entry_ttl = INT64_MAX;
  original.params.maintenance_interval = 9223372036854 * sim::kSecond;
  original.params.query_deadline = 1;
  original.workload.zipf_exponent = 1.7976931348623157e308;  // DBL_MAX
  original.avg_degree = 4.0000000001234567;
  auto parsed = ParseConfig(FormatConfig(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ExperimentConfig& c = parsed.ValueOrDie();
  EXPECT_EQ(c.params.ri.entry_ttl, original.params.ri.entry_ttl);
  EXPECT_EQ(c.params.maintenance_interval, original.params.maintenance_interval);
  EXPECT_EQ(c.params.query_deadline, 1);
  EXPECT_EQ(c.workload.zipf_exponent, original.workload.zipf_exponent);
  EXPECT_EQ(c.avg_degree, original.avg_degree);
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
  EXPECT_EQ(Set("protocol", "flooding").protocol, ProtocolKind::kFlooding);
  EXPECT_EQ(Set("protocol", "Dicas").protocol, ProtocolKind::kDicas);
  EXPECT_EQ(Set("protocol", "DICAS-KEYS").protocol, ProtocolKind::kDicasKeys);
  EXPECT_EQ(Set("protocol", "dicaskeys").protocol, ProtocolKind::kDicasKeys);
  EXPECT_EQ(Set("protocol", "Locaware").protocol, ProtocolKind::kLocaware);
  EXPECT_EQ(Set("protocol", "dht").protocol, ProtocolKind::kDht);
  EXPECT_EQ(Set("protocol", "DHT").protocol, ProtocolKind::kDht);
  EXPECT_EQ(Set("protocol", "Hybrid").protocol, ProtocolKind::kHybrid);
  EXPECT_FALSE(Accepts("protocol", "napster"));
  // The row walks the enumerators its *Name() function names: every
  // registered kind, the last one included, reads back from its name.
  for (ProtocolKind kind : AllProtocolKinds()) {
    EXPECT_EQ(Set("protocol", ProtocolKindName(kind)).protocol, kind);
  }
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
  EXPECT_EQ(Set("params.selection", "locid-then-rtt").params.selection,
            SelectionStrategy::kLocIdThenRtt);
  EXPECT_EQ(Set("params.selection", "min-rtt").params.selection,
            SelectionStrategy::kMinRtt);
  EXPECT_EQ(Set("params.selection", "random").params.selection,
            SelectionStrategy::kRandom);
  EXPECT_EQ(Set("params.selection", "first-responder").params.selection,
            SelectionStrategy::kFirstResponder);
  EXPECT_FALSE(Accepts("params.selection", "closest"));
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
  // A line appended to a serialized config overrides it: the last
  // assignment wins.
  ExperimentConfig base = MakePaperConfig(ProtocolKind::kLocaware);
  auto patched = ParseConfig(FormatConfig(base) + "\nparams.ttl = 3\n");
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched.ValueOrDie().params.ttl, 3u);
}

TEST(ConfigIoTest, SetConfigValueActsLikeAFileLine) {
  // Both sides trimmed, as in a file; the last assignment wins.
  ExperimentConfig c = Set("  params.ttl ", " 3\t");
  EXPECT_EQ(c.params.ttl, 3u);
  ASSERT_TRUE(SetConfigValue(&c, "params.ttl", "5").ok());
  EXPECT_EQ(c.params.ttl, 5u);
  EXPECT_EQ(Set("underlay.model", "BA").underlay.model,
            net::RouterGraphModel::kBarabasiAlbert);
  EXPECT_EQ(Set("trace_path", "/data/x.trace").trace_path, "/data/x.trace");
  // Every failure is an InvalidArgument that names the key, and leaves the
  // field as it was.
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {"params.ttl", "x"},
           {"params.ttl", "12abc"},
           {"params.ttl", ""},
           {"seed", "-1"},
           {"seed", "7x"},
           {"workload.num_queries", "abc"},
           {"avg_degree", "1.5x"},
           {"churn.enabled", "true!"},
           {"ri.eviction", "mru"},
           {"no_such_knob", "1"}}) {
    const Status st = SetConfigValue(&c, key, value);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << key << " = " << value;
    EXPECT_NE(st.message().find(key), std::string::npos) << st.ToString();
  }
  EXPECT_EQ(c.params.ttl, 5u);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_FALSE(SetConfigValue(&c, "", "1").ok());
}

TEST(ConfigIoTest, ParseUnsignedTakesDigitsOnly) {
  EXPECT_EQ(ParseUnsigned("n", "0").ValueOrDie(), 0u);
  EXPECT_EQ(ParseUnsigned("n", "18446744073709551615").ValueOrDie(), UINT64_MAX);
  for (const char* text : {"", "-1", "-0", "+1", " 7", "7 ", "7x", "0x10", "1e3",
                           "18446744073709551616"}) {
    auto parsed = ParseUnsigned("--buckets", text);
    ASSERT_FALSE(parsed.ok()) << "'" << text << "'";
    EXPECT_NE(parsed.status().message().find("--buckets"), std::string::npos);
  }
}

TEST(ConfigIoTest, EveryKeyIsOneRowThatFormatsAndParses) {
  const std::vector<std::string_view> keys = ConfigKeys();
  EXPECT_EQ(keys.size(), 46u);
  EXPECT_EQ(std::set<std::string_view>(keys.begin(), keys.end()).size(), keys.size());
  // With the two optional keys set, the formatted file holds every key once,
  // in table order.
  ExperimentConfig c = MakePaperConfig(ProtocolKind::kLocaware);
  c.trace_path = "/data/run.trace";
  c.params.selection = SelectionStrategy::kFirstResponder;
  const std::string text = FormatConfig(c);
  size_t at = 0;
  for (std::string_view key : keys) {
    const size_t found = text.find(std::string(1, '\n').append(key).append(" = "), at);
    ASSERT_NE(found, std::string::npos) << key;
    at = found + 1;
  }
  auto parsed = ParseConfig(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(FormatConfig(parsed.ValueOrDie()), text);
}

TEST(ConfigIoTest, SaveRejectsValuesTheFormatCannotCarry) {
  // '#' starts a comment and CR/LF end the line: "run#2" would load back as
  // "run", and a label with a LF could set params.selection or trace_path,
  // which the file otherwise omits.
  const std::string path = ::testing::TempDir() + "/locaware_cfg_unsaveable.cfg";
  const ExperimentConfig base = MakePaperConfig(ProtocolKind::kLocaware);
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {"label", "run#2"},
           {"label", "run\nparams.selection = random"},
           {"label", "run\r"},
           {"trace_path", "/data/a#b.trace"},
           {"trace_path", "/data/a\nb.trace"}}) {
    ExperimentConfig c = base;
    (key == "label" ? c.label : c.trace_path) = value;
    const Status st = SaveConfig(c, path);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(st.message().find(key), std::string::npos) << st.ToString();
  }
  ExperimentConfig plain = base;
  plain.label = "run 2";
  plain.trace_path = "/data/a b.trace";
  ASSERT_TRUE(SaveConfig(plain, path).ok());
  auto loaded = LoadConfig(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().label, "run 2");
  EXPECT_EQ(loaded.ValueOrDie().trace_path, "/data/a b.trace");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace locaware::core
