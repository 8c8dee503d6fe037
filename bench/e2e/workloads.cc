#include <algorithm>
#include <cmath>

#include "core/experiment.h"
#include "e2e.h"

namespace locaware::e2e {
namespace {

using core::ProtocolKind;

// Sizes are chosen so that one Create + Run takes under a second: a timed
// run then fits 15 or more shards=4 + shards=1 pairs, and their statistics
// stay steady on a noisy shared host. For the same reason every workload
// keeps 400 routers; 1000 routers at 100k peers doubled set-up time and
// halved the pairs.
constexpr Workload kWorkloads[] = {
    {"fig3_flooding_10k",
     "10k-peer TTL-7 flooding: per-event query-plane cost (forwarding, GUID "
     "dedup, reverse path); no caches, Bloom filters or ticks",
     ProtocolKind::kFlooding, 10000, 400, 150, false, 1.0, 0x953e6577a8a2c75f},
    {"churn_locaware_10k",
     "10k-peer Locaware under churn (300 s sessions, 120 s offline): index "
     "reads and Bloom gossip in sparse windows, plus the write side (link "
     "repair, index invalidation, full Bloom bootstraps)",
     ProtocolKind::kLocaware, 10000, 400, 800, true, 1.0, 0xbcb9f4a21a8f6495},
    {"skew_hybrid_4k",
     "4k-peer hybrid at Zipf 1.2: the only workload whose work is mostly "
     "the DHT message plane (publish stores, lookups, escalations)",
     ProtocolKind::kHybrid, 4000, 400, 300, false, 1.2, 0xb295b597ced3e2fa},
    {"fig3_locaware_100k",
     "100k-peer Locaware: set-up and memory (per-peer node state, caches, "
     "filters, arenas), which the smaller workloads barely feel",
     ProtocolKind::kLocaware, 100000, 400, 400, false, 1.0, 0xde623aec576f343a},
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower", 0.25, false, 4, "setup_cpu_s", 1},
    {"run_4shard_s", "s", "lower", 0.25, false, 4, "run_cpu_s", 2},
    {"run_1shard_s", "s", "lower", 0.25, false, 1, "run_cpu_s", 2},
    {"peak_rss_mb", "MB", "lower", 0.10, false, 4, "peak_rss_mb"},
    {"peak_rss_1shard_mb", "MB", "lower", 0.10, false, 1, "peak_rss_mb"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.underlay_build_s", "s", "lower", 0, false},
    {"net.locids_s", "s", "lower", 0, false},
    {"catalog.generate_s", "s", "lower", 0, false},
    {"catalog.workload_s", "s", "lower", 0, false},
    {"catalog.assign_files_s", "s", "lower", 0, false},
    {"sim.placement_s", "s", "lower", 0, false},
    {"overlay.generate_s", "s", "lower", 0, false},
    {"overlay.churn_timeline_s", "s", "lower", 0, false},
    {"dht.ring_s", "s", "lower", 0, false},
    {"core.create_rest_s", "s", "lower", 0, false},
    {"mem.after_create_mb", "MB", "lower", 0, false},
    {"mem.run_growth_mb", "MB", "lower", 0, false},
    {"sim.events", "count", "lower", 0, true},
    {"sim.events_1shard", "count", "lower", 0, true},
    {"sim.ns_per_event", "ns/event", "lower", 0, false},
    {"sim.ns_per_event_1shard", "ns/event", "lower", 0, false},
    {"sim.windows", "count", "lower", 0, true},
    {"sim.events_per_window", "events/window", "higher", 0, false},
    {"sim.run_4worker_s", "s", "lower", 0, false},
    {"sim.idle_s", "s", "lower", 0, false},
    {"sim.idle_share", "ratio", "lower", 0, false},
    {"sim.occupancy_mean", "shards", "higher", 0, false},
    {"sim.steals", "count", "lower", 0, false},
    {"sim.speedup_4", "x", "higher", 0, false},
    {"core.query_msgs", "count", "lower", 0, true},
    {"core.response_msgs", "count", "lower", 0, true},
    {"core.msgs_per_query", "msgs/query", "lower", 0, false},
    {"core.success_rate", "ratio", "higher", 0, false},
    {"core.allocs_per_event", "allocs/event", "lower", 0, false},
    {"cache.lookups", "count", "lower", 0, true},
    {"cache.hit_rate", "ratio", "higher", 0, false},
    {"cache.inserts", "count", "lower", 0, true},
    {"cache.evictions", "count", "lower", 0, true},
    {"cache.invalidations", "count", "lower", 0, true},
    {"cache.answer_share", "ratio", "higher", 0, false},
    {"bloom.update_msgs", "count", "lower", 0, true},
    {"bloom.update_bytes", "B", "lower", 0, true},
    {"overlay.repair_msgs", "count", "lower", 0, true},
    {"overlay.repair_bytes", "B", "lower", 0, true},
    {"overlay.churn_events", "count", "lower", 0, true},
    {"dht.lookups", "count", "lower", 0, true},
    {"dht.hops_per_lookup", "hops/lookup", "lower", 0, false},
    {"dht.store_msgs", "count", "lower", 0, true},
    {"dht.escalations", "count", "lower", 0, true},
    {"metrics.report_s", "s", "lower", 0, false},
    {"trace.overhead_s", "s", "lower", 0, false},
};

}  // namespace

std::span<const Workload> Workloads() { return kWorkloads; }

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

core::ExperimentConfig MakeConfig(const Workload& workload, uint32_t shards,
                                  uint32_t workers, double query_scale) {
  const auto queries = static_cast<uint64_t>(
      std::max(1.0, std::round(static_cast<double>(workload.num_queries) * query_scale)));
  core::ExperimentConfig config =
      core::MakePaperConfig(workload.protocol, queries, kNetworkSeed);
  config.num_peers = workload.num_peers;
  config.underlay.num_routers = workload.num_routers;
  config.workload.zipf_exponent = workload.zipf_exponent;
  if (workload.churn) {
    config.churn.enabled = true;
    config.churn.mean_session_s = 300;
    config.churn.mean_offline_s = 120;
  }
  config.scheduler.shards = shards;
  config.scheduler.workers = workers;
  return config;
}

std::span<const MetricDef> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricDef> PerLayerMetrics() { return kPerLayer; }

SampleStats ComputeStats(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n == 0) return {};
  if (n == 1) return {samples[0], samples[0], samples[0], samples[0], samples[0], samples[0]};
  // The p-th percentile sits at position p * (n - 1), interpolated.
  const auto percentile = [&](double p) {
    const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(n - 1);
    const auto lo = std::min(static_cast<size_t>(pos), n - 2);
    return samples[lo] + (samples[lo + 1] - samples[lo]) * (pos - static_cast<double>(lo));
  };
  const double p10_quartile_offset = 0.674 * std::sqrt(0.1 * 0.9 / static_cast<double>(n));
  // statistics.quantiles(method="exclusive"): the i-th cut point sits at
  // position i * (n + 1) / 4, clamped to [1, n - 1] and interpolated.
  const auto cut = [&](size_t i) {
    const size_t m = n + 1;
    const size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (samples[j - 1] * (4 - delta) + samples[j] * delta) / 4;
  };
  return {percentile(0.1),
          percentile(0.1 - p10_quartile_offset),
          percentile(0.1 + p10_quartile_offset),
          cut(1),
          cut(2),
          cut(3)};
}

}  // namespace locaware::e2e
