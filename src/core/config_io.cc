#include "core/config_io.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <tuple>
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
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%" PRIu64 ".%06" PRIu64, t < 0 ? "-" : "",
                mag / sim::kSecond, mag % sim::kSecond);
  std::string out = buf;
  out.erase(out.find_last_not_of('0') + 1);
  if (out.back() == '.') out.pop_back();
  return out;
}

Status Bad(std::string_view key, std::string_view value, std::string_view why) {
  return Status::InvalidArgument(std::string(key) + ": '" + std::string(value) + "' " +
                                 std::string(why));
}

std::string_view Trim(std::string_view s) {
  const size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return {};
  return s.substr(begin, s.find_last_not_of(" \t") - begin + 1);
}

Result<double> ParseF64(std::string_view key, std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    return Bad(key, value, "is not a number");
  }
  return v;
}

/// Parses a duration: whole milliseconds for `*_ms` keys, decimal seconds
/// otherwise. Both convert exactly in integers when plain digits
/// (sub-microsecond digits round half up), so formatted configs read back to
/// the same microsecond; other forms ("1e3", ".5") go through sim::FromMs.
/// Negative values and values past INT64_MAX us, where FromMs's cast is
/// undefined, are rejected by name.
Result<sim::SimTime> ParseDuration(std::string_view key, std::string_view value) {
  constexpr uint64_t kMaxUs = std::numeric_limits<sim::SimTime>::max();
  const Status out_of_range = Bad(key, value, "is negative or past INT64_MAX us");
  const bool ms = key.ends_with("_ms");
  const size_t dot = ms ? value.size() : std::min(value.find('.'), value.size());
  const std::string_view frac = value.substr(std::min(dot + 1, value.size()));
  auto whole = ParseUnsigned(key, value.substr(0, dot));
  if (ms && !whole.ok()) return whole.status();
  if (whole.ok() && frac.find_first_not_of("0123456789") == std::string_view::npos) {
    const uint64_t unit = ms ? sim::kMillisecond : sim::kSecond;
    if (whole.ValueOrDie() > kMaxUs / unit) return out_of_range;
    std::string micros(frac.substr(0, 6));  // empty for `*_ms` keys
    micros.resize(6, '0');
    uint64_t us = whole.ValueOrDie() * unit + ParseUnsigned(key, micros).ValueOrDie();
    if (frac.size() > 6 && frac[6] >= '5') ++us;
    if (us > kMaxUs) return out_of_range;
    return static_cast<sim::SimTime>(us);
  }
  auto v = ParseF64(key, value);
  if (!v.ok()) return v.status();
  const double v_ms = v.ValueOrDie() * 1000.0;
  if (!(v_ms >= 0) || v_ms * 1000.0 + 0.5 >= 0x1p63) return out_of_range;
  return sim::FromMs(v_ms);
}

/// Where an enum's names come from: its module's *Name() function over the
/// dense enumerators 0..last, plus at most one older spelling kept as an
/// alias. Names match case-insensitively and are written lower-case.
template <typename E>
struct EnumNames {
  const char* (*name)(E);
  E last;
  const char* alias = nullptr;
  E alias_of{};
};

const std::tuple kEnumNames{
    EnumNames{ProtocolKindName, ProtocolKind::kHybrid, "dicaskeys",
              ProtocolKind::kDicasKeys},
    EnumNames{SelectionStrategyName, SelectionStrategy::kFirstResponder},
    EnumNames{sim::PlacementStrategyName, sim::PlacementStrategy::kClustered},
    EnumNames{net::RouterGraphModelName, net::RouterGraphModel::kBarabasiAlbert, "ba",
              net::RouterGraphModel::kBarabasiAlbert},
    EnumNames{cache::EvictionPolicyName, cache::EvictionPolicy::kRandom}};

template <typename E>
Result<E> ParseEnum(std::string_view key, std::string_view value) {
  const EnumNames<E>& names = std::get<EnumNames<E>>(kEnumNames);
  const std::string v = ToLower(value);
  if (names.alias != nullptr && v == names.alias) return names.alias_of;
  std::string known;
  for (int i = 0; i <= static_cast<int>(names.last); ++i) {
    const std::string name = ToLower(names.name(static_cast<E>(i)));
    if (v == name) return static_cast<E>(i);
    known += (i == 0 ? "" : ", ") + name;
  }
  return Bad(key, value, "is not one of " + known);
}

template <typename T>
constexpr bool kIsOptional = false;
template <typename T>
constexpr bool kIsOptional<std::optional<T>> = true;

/// Parses `value` as the type of the field `key` sets. Unsigned fields
/// narrower than 64 bits reject values past their maximum instead of
/// truncating them; SimTime fields are durations.
template <typename T>
Result<T> ParseField(std::string_view key, std::string_view value) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::string v = ToLower(value);
    if (v == "true" || v == "1" || v == "on") return true;
    if (v == "false" || v == "0" || v == "off") return false;
    return Bad(key, value, "is not a bool");
  } else if constexpr (std::is_floating_point_v<T>) {
    return ParseF64(key, value);
  } else if constexpr (std::is_same_v<T, sim::SimTime>) {
    return ParseDuration(key, value);
  } else if constexpr (std::is_enum_v<T>) {
    return ParseEnum<T>(key, value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return std::string(value);
  } else if constexpr (kIsOptional<T>) {
    auto v = ParseField<typename T::value_type>(key, value);
    if (!v.ok()) return v.status();
    return T(v.ValueOrDie());
  } else {
    static_assert(std::is_unsigned_v<T>);
    auto v = ParseUnsigned(key, value);
    if (!v.ok()) return v.status();
    constexpr T kMax = std::numeric_limits<T>::max();
    if (v.ValueOrDie() > kMax) return Bad(key, value, "exceeds " + std::to_string(kMax));
    return static_cast<T>(v.ValueOrDie());
  }
}

/// The text FormatConfig writes for a field, or nullopt to omit the key (an
/// empty string, an unset optional). The inverse of ParseField: durations
/// are exact seconds, or whole milliseconds for `*_ms` keys.
template <typename T>
std::optional<std::string> FormatField(const T& v, std::string_view key) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    return FormatDouble(v);
  } else if constexpr (std::is_same_v<T, sim::SimTime>) {
    return key.ends_with("_ms") ? std::to_string(v / sim::kMillisecond)
                                : FormatSeconds(v);
  } else if constexpr (std::is_enum_v<T>) {
    return ToLower(std::get<EnumNames<T>>(kEnumNames).name(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v.empty() ? std::nullopt : std::optional(v);
  } else if constexpr (kIsOptional<T>) {
    return v.has_value() ? FormatField(*v, key) : std::nullopt;
  } else {
    static_assert(std::is_unsigned_v<T>);
    return std::to_string(v);
  }
}

constexpr std::string_view kRun = "locaware experiment configuration (key = value)";
constexpr std::string_view kScheduler =
    "parallel scheduler (wall-clock only: results never depend on it)";
constexpr std::string_view kNetwork = "network";
constexpr std::string_view kWorkload = "content & workload";
constexpr std::string_view kChurn = "churn";
constexpr std::string_view kParams = "protocol parameters";
constexpr std::string_view kDht = "chord dht (dht / hybrid protocols only)";
constexpr std::string_view kIndex = "response index";

/// The key table, in file order: the only place a config key is named. Calls
/// `row(key, section, field)` once per key (`field` is const when `c` is);
/// label adds the text written in place of an empty value.
template <typename Config, typename Row>
void ForEachKey(Config& c, Row&& row) {
  row("label", kRun, c.label, ProtocolKindName(c.protocol));
  row("protocol", kRun, c.protocol);
  row("seed", kRun, c.seed);
  row("scheduler.shards", kScheduler, c.scheduler.shards);
  row("scheduler.workers", kScheduler, c.scheduler.workers);
  row("scheduler.placement", kScheduler, c.scheduler.placement);
  row("num_peers", kNetwork, c.num_peers);
  row("avg_degree", kNetwork, c.avg_degree);
  row("num_landmarks", kNetwork, c.num_landmarks);
  row("use_uniform_underlay", kNetwork, c.use_uniform_underlay);
  row("underlay.num_routers", kNetwork, c.underlay.num_routers);
  row("underlay.model", kNetwork, c.underlay.model);
  row("underlay.min_rtt_ms", kNetwork, c.underlay.min_rtt_ms);
  row("underlay.max_rtt_ms", kNetwork, c.underlay.max_rtt_ms);
  row("files_per_peer", kWorkload, c.files_per_peer);
  row("catalog.num_files", kWorkload, c.catalog.num_files);
  row("catalog.keyword_pool_size", kWorkload, c.catalog.keyword_pool_size);
  row("catalog.keywords_per_file", kWorkload, c.catalog.keywords_per_file);
  row("workload.num_queries", kWorkload, c.workload.num_queries);
  row("workload.zipf_exponent", kWorkload, c.workload.zipf_exponent);
  row("workload.query_rate_per_peer_s", kWorkload, c.workload.query_rate_per_peer_s);
  row("workload.min_query_keywords", kWorkload, c.workload.min_query_keywords);
  row("workload.max_query_keywords", kWorkload, c.workload.max_query_keywords);
  row("trace_path", kWorkload, c.trace_path);
  row("churn.enabled", kChurn, c.churn.enabled);
  row("churn.mean_session_s", kChurn, c.churn.mean_session_s);
  row("churn.mean_offline_s", kChurn, c.churn.mean_offline_s);
  row("churn.rejoin_links", kChurn, c.churn.rejoin_links);
  row("params.ttl", kParams, c.params.ttl);
  row("params.num_groups", kParams, c.params.num_groups);
  row("params.fallback_fanout", kParams, c.params.fallback_fanout);
  row("params.bloom_bits", kParams, c.params.bloom_bits);
  row("params.bloom_hashes", kParams, c.params.bloom_hashes);
  row("params.maintenance_interval_s", kParams, c.params.maintenance_interval);
  row("params.query_deadline_s", kParams, c.params.query_deadline);
  row("params.max_response_providers", kParams, c.params.max_response_providers);
  row("params.requester_becomes_provider", kParams, c.params.requester_becomes_provider);
  row("params.loc_aware_routing", kParams, c.params.loc_aware_routing);
  row("params.selection", kParams, c.params.selection);
  row("dht.successors", kDht, c.params.dht_successors);
  row("dht.fingers", kDht, c.params.dht_fingers);
  row("dht.republish_interval_ms", kDht, c.params.dht_republish_interval);
  row("ri.max_filenames", kIndex, c.params.ri.max_filenames);
  row("ri.max_providers_per_file", kIndex, c.params.ri.max_providers_per_file);
  row("ri.entry_ttl_s", kIndex, c.params.ri.entry_ttl);
  row("ri.eviction", kIndex, c.params.ri.eviction);
}

/// FormatConfig, also reporting in `*unsaveable` the first value the text
/// format cannot carry back.
std::string Format(const ExperimentConfig& c, Status* unsaveable) {
  std::string out;
  std::string_view last_section;
  ForEachKey(c, [&](std::string_view key, std::string_view section, const auto& field,
                    const char* if_empty = nullptr) {
    if (section != last_section) {
      out += (last_section.empty() ? "# " : "\n# ") + std::string(section) + "\n";
      last_section = section;
    }
    std::optional<std::string> value = FormatField(field, key);
    if (!value.has_value() && if_empty != nullptr) value = if_empty;
    if (!value.has_value()) return;
    out += std::string(key) + " = " + *value + "\n";
    // '#' would start a comment, CR or LF a new line.
    if (unsaveable->ok() && value->find_first_of("#\r\n") != std::string::npos) {
      *unsaveable = Status::InvalidArgument(
          std::string(key) + ": a value holding '#', CR or LF cannot be saved");
    }
  });
  return out;
}

}  // namespace

Result<uint64_t> ParseUnsigned(std::string_view name, std::string_view text) {
  // Unlike strtoull, which reads "-5" as 2^64 - 5 and "7x" as 7.
  uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec == std::errc() && end == text.data() + text.size()) return v;
  return Bad(name, text,
             ec == std::errc::result_out_of_range ? "is out of range"
                                                  : "is not an unsigned integer");
}

Status SetConfigValue(ExperimentConfig* config, std::string_view key,
                      std::string_view value) {
  key = Trim(key);
  value = Trim(value);
  if (value.empty()) return Bad(key, value, "is empty");
  std::optional<Status> result;
  ForEachKey(*config, [&](std::string_view row_key, std::string_view, auto& field,
                          auto&&...) {
    if (result.has_value() || row_key != key) return;
    auto v = ParseField<std::remove_reference_t<decltype(field)>>(key, value);
    if (v.ok()) field = std::move(v).ValueOrDie();
    result = v.status();
  });
  return result.value_or(
      Status::InvalidArgument("unknown key '" + std::string(key) + "'"));
}

std::vector<std::string_view> ConfigKeys() {
  std::vector<std::string_view> keys;
  const ExperimentConfig defaults;
  ForEachKey(defaults, [&keys](std::string_view key, auto&&...) { keys.push_back(key); });
  return keys;
}

std::string FormatConfig(const ExperimentConfig& config) {
  Status ignored;
  return Format(config, &ignored);
}

Result<ExperimentConfig> ParseConfig(const std::string& text) {
  ExperimentConfig c;
  std::istringstream in(text);
  std::string line;
  for (size_t lineno = 1; std::getline(in, line); ++lineno) {
    const std::string_view kv = std::string_view(line).substr(0, line.find('#'));
    if (Trim(kv).empty()) continue;
    const size_t eq = kv.find('=');
    Status st = Status::InvalidArgument("expected 'key = value'");
    if (eq != std::string_view::npos) {
      st = SetConfigValue(&c, kv.substr(0, eq), kv.substr(eq + 1));
    }
    if (!st.ok()) {
      return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                     st.message());
    }
  }
  return c;
}

Status SaveConfig(const ExperimentConfig& config, const std::string& path) {
  Status unsaveable;
  const std::string text = Format(config, &unsaveable);
  if (!unsaveable.ok()) return unsaveable;
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << text;
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
