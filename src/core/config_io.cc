#include "core/config_io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/json_writer.h"
#include "common/string_util.h"

namespace locaware::core {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  // Ten digits keep files readable; a value they do not pin exactly (or
  // round past the double range) gets the 17 digits that always read back.
  if (std::strtod(buf, nullptr) != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Exact decimal seconds ("12", "0.25"): what ParseDuration reads back to
/// the same microsecond.
std::string FormatSeconds(sim::SimTime t) {
  const uint64_t mag = t < 0 ? 0 - static_cast<uint64_t>(t) : static_cast<uint64_t>(t);
  const uint64_t per_second = sim::kSecond;
  std::string out = (t < 0 ? "-" : "") + std::to_string(mag / per_second);
  if (mag % per_second != 0) {
    char frac[8];
    std::snprintf(frac, sizeof(frac), ".%06" PRIu64, mag % per_second);
    out += frac;
    while (out.back() == '0') out.pop_back();
  }
  return out;
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
  // strtoull would read "-5" as 2^64 - 5, skip leading whitespace and
  // saturate past 2^64 - 1.
  if (kv.value[0] == '-') {
    return Status::InvalidArgument(kv.key + ": '" + kv.value + "' is negative");
  }
  char* end = nullptr;
  errno = 0;
  const uint64_t v = std::strtoull(kv.value.c_str(), &end, 10);
  if (end == kv.value.c_str() || *end != '\0' ||
      std::isspace(static_cast<unsigned char>(kv.value[0]))) {
    return Status::InvalidArgument(kv.key + ": '" + kv.value + "' is not an integer");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument(kv.key + ": '" + kv.value + "' is out of range");
  }
  return v;
}

Result<double> ParseF64(const KeyValue& kv) {
  char* end = nullptr;
  const double v = std::strtod(kv.value.c_str(), &end);
  if (end == kv.value.c_str() || *end != '\0' || !std::isfinite(v)) {
    return Status::InvalidArgument(kv.key + ": '" + kv.value + "' is not a number");
  }
  return v;
}

/// Parses a duration: whole milliseconds for `*_ms` keys, decimal seconds
/// otherwise. Whole milliseconds and plain `digits[.digits]` seconds convert
/// exactly in integers (sub-microsecond digits round half up), so formatted
/// configs read back to the same microsecond; other forms ("1e3") go through
/// sim::FromMs. Values past INT64_MAX us, where FromMs's cast is undefined,
/// are rejected by name, and so are negative ones.
Result<sim::SimTime> ParseDuration(const KeyValue& kv) {
  constexpr uint64_t kMaxUs = std::numeric_limits<sim::SimTime>::max();
  const auto out_of_range = [&] {
    return Status::InvalidArgument(kv.key + ": '" + kv.value +
                                   "' is negative or past INT64_MAX us");
  };
  if (kv.key.ends_with("_ms")) {
    auto v = ParseU64(kv);
    if (!v.ok()) return v.status();
    if (v.ValueOrDie() > kMaxUs / sim::kMillisecond) return out_of_range();
    return static_cast<sim::SimTime>(v.ValueOrDie()) * sim::kMillisecond;
  }
  const std::string& text = kv.value;
  const size_t dot = std::min(text.find('.'), text.size());
  const auto digits = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      if (!std::isdigit(static_cast<unsigned char>(text[i]))) return false;
    }
    return true;
  };
  if (dot > 0 && digits(0, dot) && digits(dot + 1, text.size())) {
    uint64_t seconds = 0;
    for (size_t i = 0; i < dot; ++i) {
      seconds = seconds * 10 + static_cast<uint64_t>(text[i] - '0');
      if (seconds > kMaxUs / sim::kSecond) return out_of_range();
    }
    uint64_t us = seconds * sim::kSecond;
    uint64_t scale = sim::kSecond;
    for (size_t i = dot + 1; i < text.size() && scale > 1; ++i) {
      scale /= 10;
      us += static_cast<uint64_t>(text[i] - '0') * scale;
    }
    const size_t round_digit = dot + 7;
    if (round_digit < text.size() && text[round_digit] >= '5') ++us;
    if (us > kMaxUs) return out_of_range();
    return static_cast<sim::SimTime>(us);
  }
  auto v = ParseF64(kv);
  if (!v.ok()) return v.status();
  const double ms = v.ValueOrDie() * 1000.0;
  if (!(ms >= 0) || ms * 1000.0 + 0.5 >= 0x1p63) return out_of_range();
  return sim::FromMs(ms);
}

Result<bool> ParseBool(const KeyValue& kv) {
  const std::string v = ToLower(kv.value);
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  return Status::InvalidArgument(kv.key + ": '" + kv.value + "' is not a bool");
}

/// Parses kv's value as the type of the field it sets. Unsigned fields
/// narrower than 64 bits reject values past their maximum instead of
/// truncating them; SimTime fields are durations.
template <typename T>
Result<T> ParseField(const KeyValue& kv) {
  if constexpr (std::is_same_v<T, bool>) {
    return ParseBool(kv);
  } else if constexpr (std::is_floating_point_v<T>) {
    return ParseF64(kv);
  } else if constexpr (std::is_same_v<T, sim::SimTime>) {
    return ParseDuration(kv);
  } else {
    static_assert(std::is_unsigned_v<T>);
    auto v = ParseU64(kv);
    if (!v.ok()) return v.status();
    constexpr T kMax = std::numeric_limits<T>::max();
    if (v.ValueOrDie() > kMax) {
      const std::string max = std::to_string(kMax);
      return Status::InvalidArgument(kv.key + ": '" + kv.value + "' exceeds " + max);
    }
    return static_cast<T>(v.ValueOrDie());
  }
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
  out << "scheduler.placement = "
      << sim::PlacementStrategyName(c.scheduler.placement) << "\n";
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
      << FormatSeconds(c.params.maintenance_interval) << "\n";
  out << "params.query_deadline_s = "
      << FormatSeconds(c.params.query_deadline) << "\n";
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
      << c.params.dht_republish_interval / sim::kMillisecond << "\n";
  out << "\n# response index\n";
  out << "ri.max_filenames = " << c.params.ri.max_filenames << "\n";
  out << "ri.max_providers_per_file = " << c.params.ri.max_providers_per_file << "\n";
  out << "ri.entry_ttl_s = " << FormatSeconds(c.params.ri.entry_ttl) << "\n";
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

    // Dispatch. Repetitive by design: every key is explicit, so a typo in a
    // config file is an error rather than a silent default.
#define LOCAWARE_ASSIGN(target)                                         \
  {                                                                     \
    auto v = ParseField<std::remove_reference_t<decltype(target)>>(kv); \
    if (!v.ok()) return v.status();                                     \
    target = v.ValueOrDie();                                            \
  }

    if (kv.key == "label") {
      c.label = kv.value;
    } else if (kv.key == "protocol") {
      auto v = ParseProtocolKind(kv.value);
      if (!v.ok()) return v.status();
      c.protocol = v.ValueOrDie();
    } else if (kv.key == "seed") {
      LOCAWARE_ASSIGN(c.seed)
    } else if (kv.key == "scheduler.shards") {
      LOCAWARE_ASSIGN(c.scheduler.shards)
    } else if (kv.key == "scheduler.workers") {
      LOCAWARE_ASSIGN(c.scheduler.workers)
    } else if (kv.key == "scheduler.placement") {
      auto v = ParsePlacementStrategy(kv.value);
      if (!v.ok()) return v.status();
      c.scheduler.placement = v.ValueOrDie();
    } else if (kv.key == "num_peers") {
      LOCAWARE_ASSIGN(c.num_peers)
    } else if (kv.key == "avg_degree") {
      LOCAWARE_ASSIGN(c.avg_degree)
    } else if (kv.key == "num_landmarks") {
      LOCAWARE_ASSIGN(c.num_landmarks)
    } else if (kv.key == "use_uniform_underlay") {
      LOCAWARE_ASSIGN(c.use_uniform_underlay)
    } else if (kv.key == "underlay.num_routers") {
      LOCAWARE_ASSIGN(c.underlay.num_routers)
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
      LOCAWARE_ASSIGN(c.underlay.min_rtt_ms)
    } else if (kv.key == "underlay.max_rtt_ms") {
      LOCAWARE_ASSIGN(c.underlay.max_rtt_ms)
    } else if (kv.key == "files_per_peer") {
      LOCAWARE_ASSIGN(c.files_per_peer)
    } else if (kv.key == "catalog.num_files") {
      LOCAWARE_ASSIGN(c.catalog.num_files)
    } else if (kv.key == "catalog.keyword_pool_size") {
      LOCAWARE_ASSIGN(c.catalog.keyword_pool_size)
    } else if (kv.key == "catalog.keywords_per_file") {
      LOCAWARE_ASSIGN(c.catalog.keywords_per_file)
    } else if (kv.key == "workload.num_queries") {
      LOCAWARE_ASSIGN(c.workload.num_queries)
    } else if (kv.key == "workload.zipf_exponent") {
      LOCAWARE_ASSIGN(c.workload.zipf_exponent)
    } else if (kv.key == "workload.query_rate_per_peer_s") {
      LOCAWARE_ASSIGN(c.workload.query_rate_per_peer_s)
    } else if (kv.key == "workload.min_query_keywords") {
      LOCAWARE_ASSIGN(c.workload.min_query_keywords)
    } else if (kv.key == "workload.max_query_keywords") {
      LOCAWARE_ASSIGN(c.workload.max_query_keywords)
    } else if (kv.key == "trace_path") {
      c.trace_path = kv.value;
    } else if (kv.key == "churn.enabled") {
      LOCAWARE_ASSIGN(c.churn.enabled)
    } else if (kv.key == "churn.mean_session_s") {
      LOCAWARE_ASSIGN(c.churn.mean_session_s)
    } else if (kv.key == "churn.mean_offline_s") {
      LOCAWARE_ASSIGN(c.churn.mean_offline_s)
    } else if (kv.key == "churn.rejoin_links") {
      LOCAWARE_ASSIGN(c.churn.rejoin_links)
    } else if (kv.key == "params.ttl") {
      LOCAWARE_ASSIGN(c.params.ttl)
    } else if (kv.key == "params.num_groups") {
      LOCAWARE_ASSIGN(c.params.num_groups)
    } else if (kv.key == "params.fallback_fanout") {
      LOCAWARE_ASSIGN(c.params.fallback_fanout)
    } else if (kv.key == "params.bloom_bits") {
      LOCAWARE_ASSIGN(c.params.bloom_bits)
    } else if (kv.key == "params.bloom_hashes") {
      LOCAWARE_ASSIGN(c.params.bloom_hashes)
    } else if (kv.key == "params.maintenance_interval_s") {
      LOCAWARE_ASSIGN(c.params.maintenance_interval)
    } else if (kv.key == "params.query_deadline_s") {
      LOCAWARE_ASSIGN(c.params.query_deadline)
    } else if (kv.key == "params.max_response_providers") {
      LOCAWARE_ASSIGN(c.params.max_response_providers)
    } else if (kv.key == "params.requester_becomes_provider") {
      LOCAWARE_ASSIGN(c.params.requester_becomes_provider)
    } else if (kv.key == "params.loc_aware_routing") {
      LOCAWARE_ASSIGN(c.params.loc_aware_routing)
    } else if (kv.key == "params.selection") {
      auto v = ParseSelectionStrategy(kv.value);
      if (!v.ok()) return v.status();
      c.params.selection = v.ValueOrDie();
    } else if (kv.key == "dht.successors") {
      LOCAWARE_ASSIGN(c.params.dht_successors)
    } else if (kv.key == "dht.fingers") {
      LOCAWARE_ASSIGN(c.params.dht_fingers)
    } else if (kv.key == "dht.republish_interval_ms") {
      LOCAWARE_ASSIGN(c.params.dht_republish_interval)
    } else if (kv.key == "ri.max_filenames") {
      LOCAWARE_ASSIGN(c.params.ri.max_filenames)
    } else if (kv.key == "ri.max_providers_per_file") {
      LOCAWARE_ASSIGN(c.params.ri.max_providers_per_file)
    } else if (kv.key == "ri.entry_ttl_s") {
      LOCAWARE_ASSIGN(c.params.ri.entry_ttl)
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
