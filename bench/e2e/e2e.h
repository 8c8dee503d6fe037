// Shared declarations of the end-to-end benchmark runner (locaware_e2e).
//
// The runner measures what a user of the simulator waits for and pays: the
// CPU time of Engine::Create and Engine::Run on one thread (scaled for
// host-speed drift) and the peak RSS of the process, on four fixed workloads,
// at 1 and 4 shards. Every measured run is a fresh child process; a traced
// pass on 4 threads adds per-layer spans and counters.
// See README.md for the workloads, the metrics and how to run and compare.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/experiment_config.h"

namespace locaware::e2e {

// --- workloads ----------------------------------------------------------------

/// One fixed benchmark input: the paper's §5.1 config plus these overrides.
struct Workload {
  const char* name;
  /// Why the workload exists: which layer it loads and which it bypasses.
  const char* why;
  core::ProtocolKind protocol;
  size_t num_peers;
  size_t num_routers;
  uint64_t num_queries;
  bool churn;
  double zipf_exponent;
  /// FNV-64 of the seed-42 ResultToJson output. A change to simulated
  /// semantics must update it in the same diff.
  uint64_t golden_digest;
};

std::span<const Workload> Workloads();
/// nullptr when no workload has that name.
const Workload* FindWorkload(std::string_view name);

/// The seed of every workload's network (underlay, overlay, catalog, file
/// placement and churn) and of its queries' requesters. The run's --seed
/// generates only what the queries ask for and when, so runs at different
/// seeds do comparable work: the flooding cost of two 10k-peer overlays of
/// different seeds differs by about 10%, and that of two requester draws by
/// 5-10%.
inline constexpr uint64_t kNetworkSeed = 42;

/// The run's ExperimentConfig, without its query trace: MakePaperConfig at
/// kNetworkSeed plus the workload's overrides, `shards` shards on `workers`
/// threads (0: one per shard; modulo placement, stealing on), and the query
/// count scaled by `query_scale` (1 for measured runs).
core::ExperimentConfig MakeConfig(const Workload& workload, uint32_t shards,
                                  uint32_t workers, double query_scale);

/// The trace seed at which golden digests are checked.
inline constexpr uint64_t kGoldenSeed = 42;

// --- metrics ------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  /// End-to-end metrics: the share of the baseline value by which the
  /// value may worsen before --compare fails. 0 for per-layer metrics.
  double bound = 0;
  /// Deterministic count: any change between two runs fails --compare.
  bool exact = false;
  /// End-to-end metrics: the shard count of the runs sampled and the field
  /// of their child report that is the sample.
  uint32_t shards = 0;
  const char* sample = nullptr;
  /// End-to-end metrics: the samples are multiplied by the host-speed ratio
  /// (kProbeReferenceS / the run's median probe time) to this power; 0
  /// leaves them unscaled. On the reference host, when the probe's time
  /// moved by a factor x, set-up times moved by about x and run times by
  /// about x² (see README.md).
  double probe_exponent = 0;
};

/// Host-time and memory metrics of untraced runs (BENCHMARK.json
/// "end_to_end").
std::span<const MetricDef> EndToEndMetrics();
/// Per-layer metrics of the traced pass (BENCHMARK.json "per_layer").
std::span<const MetricDef> PerLayerMetrics();

/// Order statistics of a metric's samples. An end-to-end metric's value is
/// its p10: on a shared host, contention only adds time, and it moves some
/// runs into a mode about 1.5 times slower, so the median of a run's
/// samples flips between modes while a low percentile stays in the fast one.
struct SampleStats {
  double p10 = 0;  ///< linear interpolation between order statistics
  /// Where p10 would likely fall if the run were repeated: the sample
  /// percentiles at 0.1 -/+ 0.674 * sqrt(0.1 * 0.9 / n), the quartiles of
  /// the p10 estimate by the normal approximation of the binomial law of
  /// order statistics.
  double p10_lo = 0;
  double p10_hi = 0;
  /// By the method of Python's statistics.quantiles(n=4) ("exclusive").
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
/// All equal the sample for n == 1; all are 0 for n == 0.
SampleStats ComputeStats(std::vector<double> samples);

/// num / den, or 0 when den is 0 (a ratio over an empty count).
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// (p10_hi - p10_lo) / p10. A metric whose spread is wider than its bound
/// is unresolved: its runs cannot tell a change of the bound's size from
/// noise. This is the p10's own sampling noise; the spread of p10 between
/// whole runs at different seeds and hours is up to about twice as wide
/// (see README.md).
inline double Spread(const SampleStats& s) { return Ratio(s.p10_hi - s.p10_lo, s.p10); }

// --- minimal JSON reader (child reports and --compare inputs) ----------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// Member `key` of an object, or nullptr.
  const JsonValue* Find(std::string_view key) const;
  /// Member `key` as a number, or `fallback` when absent or not a number.
  double Number(std::string_view key, double fallback = 0) const;
  /// Member `key` as a string, or "" when absent or not a string.
  std::string String(std::string_view key) const;
};

/// Parses one JSON document (RFC 8259; \u escapes outside ASCII are kept
/// as '?'). Fails with InvalidArgument on malformed input.
Result<JsonValue> ParseJson(std::string_view text);

// --- child runs -----------------------------------------------------------------

/// Runs one Create + Run of `workload` on the query trace of `seed` in this
/// process and prints one JSON object on stdout: wall-clock and CPU timings,
/// counters, the result digest and VmHWM. With `traced`, first re-runs the
/// standalone setup steps under spans and counts heap allocations. Returns
/// the process exit code.
int RunChild(const Workload& workload, uint64_t seed, uint32_t shards, uint32_t workers,
             double query_scale, bool traced);

/// Span names of the setup steps the traced pass re-runs, in
/// Engine::Create's order; each also names a per-layer metric "<name>_s".
std::span<const char* const> SetupSpans();

// --- comparison -----------------------------------------------------------------

/// Compares two --out result documents, one row per workload. Returns 0 when
/// no end-to-end value worsened beyond its bound (among resolved metrics),
/// every deterministic count and digest is identical and neither document
/// has a failed op; 1 otherwise; 2 if the documents are not comparable
/// (different seed or query scale).
int CompareResults(const JsonValue& before, const JsonValue& after);

}  // namespace locaware::e2e
