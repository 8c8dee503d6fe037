#include "core/config_io.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json_writer.h"
#include "common/string_util.h"

namespace locaware::core {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// One parsed `key = value` line.
struct KeyValue {
  std::string key;
  std::string value;
};

Result<KeyValue> ParseLine(const std::string& line, size_t lineno) {
  const size_t eq = line.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("line " + std::to_string(lineno) +
                                   ": expected 'key = value'");
  }
  auto trim = [](std::string s) {
    const size_t begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos) return std::string();
    const size_t end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
  };
  KeyValue kv;
  kv.key = trim(line.substr(0, eq));
  kv.value = trim(line.substr(eq + 1));
  if (kv.key.empty() || kv.value.empty()) {
    return Status::InvalidArgument("line " + std::to_string(lineno) +
                                   ": empty key or value");
  }
  return kv;
}

Result<uint64_t> ParseU64(const KeyValue& kv) {
  char* end = nullptr;
  const uint64_t v = std::strtoull(kv.value.c_str(), &end, 10);
  if (end == kv.value.c_str() || *end != '\0') {
    return Status::InvalidArgument(kv.key + ": '" + kv.value + "' is not an integer");
  }
  return v;
}

Result<double> ParseF64(const KeyValue& kv) {
  char* end = nullptr;
  const double v = std::strtod(kv.value.c_str(), &end);
  if (end == kv.value.c_str() || *end != '\0') {
    return Status::InvalidArgument(kv.key + ": '" + kv.value + "' is not a number");
  }
  return v;
}

Result<bool> ParseBool(const KeyValue& kv) {
  const std::string v = ToLower(kv.value);
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  return Status::InvalidArgument(kv.key + ": '" + kv.value + "' is not a bool");
}

}  // namespace

Result<ProtocolKind> ParseProtocolKind(const std::string& name) {
  const std::string v = ToLower(name);
  if (v == "flooding") return ProtocolKind::kFlooding;
  if (v == "dicas") return ProtocolKind::kDicas;
  if (v == "dicas-keys" || v == "dicaskeys") return ProtocolKind::kDicasKeys;
  if (v == "locaware") return ProtocolKind::kLocaware;
  if (v == "dht") return ProtocolKind::kDht;
  if (v == "hybrid") return ProtocolKind::kHybrid;
  return Status::InvalidArgument("unknown protocol '" + name + "'");
}

Result<SelectionStrategy> ParseSelectionStrategy(const std::string& name) {
  const std::string v = ToLower(name);
  if (v == "locid-then-rtt") return SelectionStrategy::kLocIdThenRtt;
  if (v == "min-rtt") return SelectionStrategy::kMinRtt;
  if (v == "random") return SelectionStrategy::kRandom;
  if (v == "first-responder") return SelectionStrategy::kFirstResponder;
  return Status::InvalidArgument("unknown selection strategy '" + name + "'");
}

Result<sim::PlacementStrategy> ParsePlacementStrategy(const std::string& name) {
  const std::string v = ToLower(name);
  if (v == "modulo") return sim::PlacementStrategy::kModulo;
  if (v == "clustered") return sim::PlacementStrategy::kClustered;
  return Status::InvalidArgument("unknown placement strategy '" + name + "'");
}

std::string FormatConfig(const ExperimentConfig& c) {
  std::ostringstream out;
  out << "# locaware experiment configuration (key = value)\n";
  out << "label = " << (c.label.empty() ? std::string(ProtocolKindName(c.protocol))
                                        : c.label)
      << "\n";
  out << "protocol = " << ToLower(ProtocolKindName(c.protocol)) << "\n";
  out << "seed = " << c.seed << "\n";
  out << "\n# parallel scheduler (wall-clock only: results never depend on it)\n";
  out << "scheduler.shards = " << c.scheduler.shards << "\n";
  out << "scheduler.workers = " << c.scheduler.workers << "\n";
  out << "scheduler.work_stealing = "
      << (c.scheduler.work_stealing ? "true" : "false") << "\n";
  out << "scheduler.placement = "
      << sim::PlacementStrategyName(c.scheduler.placement) << "\n";
  if (c.scheduler.event_reserve_hint != 0) {
    out << "scheduler.event_reserve_hint = " << c.scheduler.event_reserve_hint
        << "\n";
  }
  out << "\n# network\n";
  out << "num_peers = " << c.num_peers << "\n";
  out << "avg_degree = " << FormatDouble(c.avg_degree) << "\n";
  out << "num_landmarks = " << c.num_landmarks << "\n";
  out << "use_uniform_underlay = " << (c.use_uniform_underlay ? "true" : "false")
      << "\n";
  out << "underlay.num_routers = " << c.underlay.num_routers << "\n";
  out << "underlay.model = " << net::RouterGraphModelName(c.underlay.model) << "\n";
  out << "underlay.min_rtt_ms = " << FormatDouble(c.underlay.min_rtt_ms) << "\n";
  out << "underlay.max_rtt_ms = " << FormatDouble(c.underlay.max_rtt_ms) << "\n";
  out << "\n# content & workload\n";
  out << "files_per_peer = " << c.files_per_peer << "\n";
  out << "catalog.num_files = " << c.catalog.num_files << "\n";
  out << "catalog.keyword_pool_size = " << c.catalog.keyword_pool_size << "\n";
  out << "catalog.keywords_per_file = " << c.catalog.keywords_per_file << "\n";
  out << "workload.num_queries = " << c.workload.num_queries << "\n";
  out << "workload.zipf_exponent = " << FormatDouble(c.workload.zipf_exponent) << "\n";
  out << "workload.query_rate_per_peer_s = "
      << FormatDouble(c.workload.query_rate_per_peer_s) << "\n";
  out << "workload.min_query_keywords = " << c.workload.min_query_keywords << "\n";
  out << "workload.max_query_keywords = " << c.workload.max_query_keywords << "\n";
  if (!c.trace_path.empty()) out << "trace_path = " << c.trace_path << "\n";
  out << "\n# churn\n";
  out << "churn.enabled = " << (c.churn.enabled ? "true" : "false") << "\n";
  out << "churn.mean_session_s = " << FormatDouble(c.churn.mean_session_s) << "\n";
  out << "churn.mean_offline_s = " << FormatDouble(c.churn.mean_offline_s) << "\n";
  out << "churn.rejoin_links = " << c.churn.rejoin_links << "\n";
  out << "\n# protocol parameters\n";
  out << "params.ttl = " << c.params.ttl << "\n";
  out << "params.num_groups = " << c.params.num_groups << "\n";
  out << "params.fallback_fanout = " << c.params.fallback_fanout << "\n";
  out << "params.bloom_bits = " << c.params.bloom_bits << "\n";
  out << "params.bloom_hashes = " << c.params.bloom_hashes << "\n";
  out << "params.maintenance_interval_s = "
      << FormatDouble(sim::ToSeconds(c.params.maintenance_interval)) << "\n";
  out << "params.query_deadline_s = "
      << FormatDouble(sim::ToSeconds(c.params.query_deadline)) << "\n";
  out << "params.max_response_providers = " << c.params.max_response_providers << "\n";
  out << "params.requester_becomes_provider = "
      << (c.params.requester_becomes_provider ? "true" : "false") << "\n";
  out << "params.loc_aware_routing = "
      << (c.params.loc_aware_routing ? "true" : "false") << "\n";
  if (c.params.selection.has_value()) {
    out << "params.selection = " << SelectionStrategyName(*c.params.selection) << "\n";
  }
  out << "\n# chord dht (dht / hybrid protocols only)\n";
  out << "dht.successors = " << c.params.dht_successors << "\n";
  out << "dht.fingers = " << c.params.dht_fingers << "\n";
  out << "dht.republish_interval_ms = "
      << static_cast<uint64_t>(sim::ToMs(c.params.dht_republish_interval)) << "\n";
  out << "\n# response index\n";
  out << "ri.max_filenames = " << c.params.ri.max_filenames << "\n";
  out << "ri.max_providers_per_file = " << c.params.ri.max_providers_per_file << "\n";
  out << "ri.entry_ttl_s = " << FormatDouble(sim::ToSeconds(c.params.ri.entry_ttl))
      << "\n";
  out << "ri.eviction = " << cache::EvictionPolicyName(c.params.ri.eviction) << "\n";
  return out.str();
}

Result<ExperimentConfig> ParseConfig(const std::string& text) {
  ExperimentConfig c;
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments and blank lines.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t") == std::string::npos) continue;

    auto parsed = ParseLine(line, lineno);
    if (!parsed.ok()) return parsed.status();
    const KeyValue kv = parsed.ValueOrDie();

    // Dispatch. Macro-free but repetitive by design: every key is explicit,
    // so a typo in a config file is an error rather than a silent default.
    auto u64 = [&]() { return ParseU64(kv); };
    auto f64 = [&]() { return ParseF64(kv); };
    auto b = [&]() { return ParseBool(kv); };
#define LOCAWARE_ASSIGN(parser, target, cast)                   \
  {                                                             \
    auto v = parser();                                          \
    if (!v.ok()) return v.status();                             \
    target = static_cast<cast>(v.ValueOrDie());                 \
  }

    if (kv.key == "label") {
      c.label = kv.value;
    } else if (kv.key == "protocol") {
      auto v = ParseProtocolKind(kv.value);
      if (!v.ok()) return v.status();
      c.protocol = v.ValueOrDie();
    } else if (kv.key == "seed") {
      LOCAWARE_ASSIGN(u64, c.seed, uint64_t)
    } else if (kv.key == "scheduler.shards") {
      LOCAWARE_ASSIGN(u64, c.scheduler.shards, uint32_t)
    } else if (kv.key == "scheduler.workers") {
      LOCAWARE_ASSIGN(u64, c.scheduler.workers, uint32_t)
    } else if (kv.key == "scheduler.work_stealing") {
      LOCAWARE_ASSIGN(b, c.scheduler.work_stealing, bool)
    } else if (kv.key == "scheduler.placement") {
      auto v = ParsePlacementStrategy(kv.value);
      if (!v.ok()) return v.status();
      c.scheduler.placement = v.ValueOrDie();
    } else if (kv.key == "scheduler.event_reserve_hint") {
      LOCAWARE_ASSIGN(u64, c.scheduler.event_reserve_hint, size_t)
    } else if (kv.key == "num_peers") {
      LOCAWARE_ASSIGN(u64, c.num_peers, size_t)
    } else if (kv.key == "avg_degree") {
      LOCAWARE_ASSIGN(f64, c.avg_degree, double)
    } else if (kv.key == "num_landmarks") {
      LOCAWARE_ASSIGN(u64, c.num_landmarks, size_t)
    } else if (kv.key == "use_uniform_underlay") {
      LOCAWARE_ASSIGN(b, c.use_uniform_underlay, bool)
    } else if (kv.key == "underlay.num_routers") {
      LOCAWARE_ASSIGN(u64, c.underlay.num_routers, size_t)
    } else if (kv.key == "underlay.model") {
      const std::string v = ToLower(kv.value);
      if (v == "waxman") {
        c.underlay.model = net::RouterGraphModel::kWaxman;
      } else if (v == "barabasi-albert" || v == "ba") {
        c.underlay.model = net::RouterGraphModel::kBarabasiAlbert;
      } else {
        return Status::InvalidArgument("unknown underlay model '" + kv.value + "'");
      }
    } else if (kv.key == "underlay.min_rtt_ms") {
      LOCAWARE_ASSIGN(f64, c.underlay.min_rtt_ms, double)
    } else if (kv.key == "underlay.max_rtt_ms") {
      LOCAWARE_ASSIGN(f64, c.underlay.max_rtt_ms, double)
    } else if (kv.key == "files_per_peer") {
      LOCAWARE_ASSIGN(u64, c.files_per_peer, size_t)
    } else if (kv.key == "catalog.num_files") {
      LOCAWARE_ASSIGN(u64, c.catalog.num_files, size_t)
    } else if (kv.key == "catalog.keyword_pool_size") {
      LOCAWARE_ASSIGN(u64, c.catalog.keyword_pool_size, size_t)
    } else if (kv.key == "catalog.keywords_per_file") {
      LOCAWARE_ASSIGN(u64, c.catalog.keywords_per_file, size_t)
    } else if (kv.key == "workload.num_queries") {
      LOCAWARE_ASSIGN(u64, c.workload.num_queries, uint64_t)
    } else if (kv.key == "workload.zipf_exponent") {
      LOCAWARE_ASSIGN(f64, c.workload.zipf_exponent, double)
    } else if (kv.key == "workload.query_rate_per_peer_s") {
      LOCAWARE_ASSIGN(f64, c.workload.query_rate_per_peer_s, double)
    } else if (kv.key == "workload.min_query_keywords") {
      LOCAWARE_ASSIGN(u64, c.workload.min_query_keywords, size_t)
    } else if (kv.key == "workload.max_query_keywords") {
      LOCAWARE_ASSIGN(u64, c.workload.max_query_keywords, size_t)
    } else if (kv.key == "trace_path") {
      c.trace_path = kv.value;
    } else if (kv.key == "churn.enabled") {
      LOCAWARE_ASSIGN(b, c.churn.enabled, bool)
    } else if (kv.key == "churn.mean_session_s") {
      LOCAWARE_ASSIGN(f64, c.churn.mean_session_s, double)
    } else if (kv.key == "churn.mean_offline_s") {
      LOCAWARE_ASSIGN(f64, c.churn.mean_offline_s, double)
    } else if (kv.key == "churn.rejoin_links") {
      LOCAWARE_ASSIGN(u64, c.churn.rejoin_links, size_t)
    } else if (kv.key == "params.ttl") {
      LOCAWARE_ASSIGN(u64, c.params.ttl, uint32_t)
    } else if (kv.key == "params.num_groups") {
      LOCAWARE_ASSIGN(u64, c.params.num_groups, uint16_t)
    } else if (kv.key == "params.fallback_fanout") {
      LOCAWARE_ASSIGN(u64, c.params.fallback_fanout, size_t)
    } else if (kv.key == "params.bloom_bits") {
      LOCAWARE_ASSIGN(u64, c.params.bloom_bits, size_t)
    } else if (kv.key == "params.bloom_hashes") {
      LOCAWARE_ASSIGN(u64, c.params.bloom_hashes, size_t)
    } else if (kv.key == "params.maintenance_interval_s") {
      auto v = f64();
      if (!v.ok()) return v.status();
      c.params.maintenance_interval = sim::FromSeconds(v.ValueOrDie());
    } else if (kv.key == "params.query_deadline_s") {
      auto v = f64();
      if (!v.ok()) return v.status();
      c.params.query_deadline = sim::FromSeconds(v.ValueOrDie());
    } else if (kv.key == "params.max_response_providers") {
      LOCAWARE_ASSIGN(u64, c.params.max_response_providers, size_t)
    } else if (kv.key == "params.requester_becomes_provider") {
      LOCAWARE_ASSIGN(b, c.params.requester_becomes_provider, bool)
    } else if (kv.key == "params.loc_aware_routing") {
      LOCAWARE_ASSIGN(b, c.params.loc_aware_routing, bool)
    } else if (kv.key == "params.selection") {
      auto v = ParseSelectionStrategy(kv.value);
      if (!v.ok()) return v.status();
      c.params.selection = v.ValueOrDie();
    } else if (kv.key == "dht.successors") {
      LOCAWARE_ASSIGN(u64, c.params.dht_successors, size_t)
    } else if (kv.key == "dht.fingers") {
      LOCAWARE_ASSIGN(u64, c.params.dht_fingers, size_t)
    } else if (kv.key == "dht.republish_interval_ms") {
      auto v = u64();
      if (!v.ok()) return v.status();
      c.params.dht_republish_interval =
          sim::FromMs(static_cast<double>(v.ValueOrDie()));
    } else if (kv.key == "ri.max_filenames") {
      LOCAWARE_ASSIGN(u64, c.params.ri.max_filenames, size_t)
    } else if (kv.key == "ri.max_providers_per_file") {
      LOCAWARE_ASSIGN(u64, c.params.ri.max_providers_per_file, size_t)
    } else if (kv.key == "ri.entry_ttl_s") {
      auto v = f64();
      if (!v.ok()) return v.status();
      c.params.ri.entry_ttl = sim::FromSeconds(v.ValueOrDie());
    } else if (kv.key == "ri.eviction") {
      const std::string v = ToLower(kv.value);
      if (v == "lru") {
        c.params.ri.eviction = cache::EvictionPolicy::kLru;
      } else if (v == "fifo") {
        c.params.ri.eviction = cache::EvictionPolicy::kFifo;
      } else if (v == "random") {
        c.params.ri.eviction = cache::EvictionPolicy::kRandom;
      } else {
        return Status::InvalidArgument("unknown eviction policy '" + kv.value + "'");
      }
    } else {
      return Status::InvalidArgument("unknown key '" + kv.key + "' (line " +
                                     std::to_string(lineno) + ")");
    }
#undef LOCAWARE_ASSIGN
  }
  return c;
}

Status SaveConfig(const ExperimentConfig& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << FormatConfig(config);
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<ExperimentConfig> LoadConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open config: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseConfig(buffer.str());
}

std::string ResultToJson(const ExperimentResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("label");
  w.String(result.label);

  w.Key("summary");
  w.BeginObject();
  w.Key("num_queries");
  w.Uint(result.summary.num_queries);
  w.Key("success_rate");
  w.Double(result.summary.success_rate);
  w.Key("msgs_per_query");
  w.Double(result.summary.msgs_per_query);
  w.Key("bytes_per_query");
  w.Double(result.summary.bytes_per_query);
  w.Key("avg_download_ms");
  w.Double(result.summary.avg_download_ms);
  w.Key("loc_match_rate");
  w.Double(result.summary.loc_match_rate);
  w.Key("cache_answer_share");
  w.Double(result.summary.cache_answer_share);
  w.Key("avg_providers_offered");
  w.Double(result.summary.avg_providers_offered);
  w.Key("bloom_update_msgs");
  w.Uint(result.summary.bloom_update_msgs);
  w.Key("bloom_update_bytes");
  w.Uint(result.summary.bloom_update_bytes);
  w.Key("stale_failures");
  w.Uint(result.summary.stale_failures);
  w.Key("stale_provider_hits");
  w.Uint(result.summary.stale_provider_hits);
  w.Key("repair_msgs");
  w.Uint(result.summary.repair_msgs);
  w.Key("repair_bytes");
  w.Uint(result.summary.repair_bytes);
  w.Key("churn_events");
  w.Uint(result.summary.churn_events);
  // DHT counters exist only for the dht/hybrid protocols; emitting them
  // conditionally keeps the paper protocols' JSON byte-identical to pre-DHT
  // output.
  if (result.summary.dht_lookups != 0 || result.summary.dht_hops != 0 ||
      result.summary.dht_store_msgs != 0 || result.summary.dht_store_bytes != 0 ||
      result.summary.hybrid_escalations != 0) {
    w.Key("dht_lookups");
    w.Uint(result.summary.dht_lookups);
    w.Key("dht_hops");
    w.Uint(result.summary.dht_hops);
    w.Key("dht_store_msgs");
    w.Uint(result.summary.dht_store_msgs);
    w.Key("dht_store_bytes");
    w.Uint(result.summary.dht_store_bytes);
    w.Key("hybrid_escalations");
    w.Uint(result.summary.hybrid_escalations);
  }
  w.EndObject();

  w.Key("series");
  w.BeginArray();
  for (const metrics::BucketPoint& p : result.series) {
    w.BeginObject();
    w.Key("queries_end");
    w.Uint(p.queries_end);
    w.Key("success_rate");
    w.Double(p.success_rate);
    w.Key("msgs_per_query");
    w.Double(p.msgs_per_query);
    w.Key("bytes_per_query");
    w.Double(p.bytes_per_query);
    w.Key("avg_download_ms");
    w.Double(p.avg_download_ms);
    w.Key("loc_match_rate");
    w.Double(p.loc_match_rate);
    w.Key("cache_answer_share");
    w.Double(p.cache_answer_share);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace locaware::core
