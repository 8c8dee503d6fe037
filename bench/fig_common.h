// Shared harness for the figure-regeneration benches: runs the paper's four
// systems on the §5.1 configuration and renders one figure's series as a
// fixed-width table plus CSV.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.h"
#include "metrics/report.h"

namespace locaware::bench {

/// Command-line knobs shared by every figure bench.
struct FigOptions {
  uint64_t num_queries = 5000;
  uint64_t seed = 42;
  size_t buckets = 10;
  /// Simulation shards per experiment (SchedulerConfig::shards). Any value
  /// yields identical metrics for a fixed seed — CI's determinism gate diffs
  /// the --json output of --shards=1 against --shards={4,8} to prove it.
  uint32_t shards = 1;
  /// Worker threads per experiment (SchedulerConfig::workers; 0 = one per
  /// shard). Wall-clock only, like shards; the gate diffs an 8-shard,
  /// 1-worker run too.
  uint32_t workers = 0;
  /// Peer → shard placement strategy (SchedulerConfig::placement). Like the
  /// rest of the scheduler block it never changes results — the gate diffs
  /// --placement=clustered JSON against the modulo baseline byte-for-byte.
  sim::PlacementStrategy placement = sim::PlacementStrategy::kModulo;
  /// When non-zero, overrides ExperimentConfig::num_peers and scales the
  /// router plane with it (~1 router per 25 peers, capped at 1000 so the
  /// all-pairs underlay precompute stays tractable at 100k-1M peers).
  size_t peers = 0;
  /// When non-empty, every experiment replays this trace file (text or
  /// binary, sniffed) instead of generating its workload.
  std::string trace_path;
  /// When non-empty, the bench also renders its figure to this SVG path.
  std::string svg_path;
  /// When non-empty, the figure benches dump every protocol's full result
  /// (summary + series) as a JSON array to this path.
  std::string json_path;
};

/// Parses --queries=N --seed=S --buckets=B --shards=K --workers=W
/// --placement=P --peers=N --trace=PATH --svg=PATH --json=PATH for the
/// figure benches, ablation_churn, ablation_skew and ablation_popularity
/// (CI's determinism gates read their --json output). The flags that name a
/// config field parse through its key (core::SetConfigValue), the other
/// counts through core::ParseUnsigned; an unknown flag or a bad value exits
/// 2, so a typo cannot silently run the default experiment.
FigOptions ParseArgs(int argc, char** argv);

/// The paper config for `kind` at options' query count and seed, with the
/// run-wide flags applied: the scheduler block, --peers (which scales the
/// router plane with it) and --trace. Every FigOptions main builds its
/// configs here and then sets only what its cells vary.
core::ExperimentConfig MakeConfig(core::ProtocolKind kind, const FigOptions& options);

/// Runs `configs` through core::RunExperiments at options.buckets. If any run
/// failed, prints every failure and exits 1, after all of them have joined.
std::vector<core::ExperimentResult> RunAll(
    const std::vector<core::ExperimentConfig>& configs, const FigOptions& options);

/// The four paper protocols through MakeConfig and RunAll. Order: Flooding,
/// Dicas, Dicas-Keys, Locaware.
std::vector<core::ExperimentResult> RunAllProtocols(const FigOptions& options);

/// Writes the figure as an SVG chart when options.svg_path is set.
void MaybeWriteSvg(const std::vector<metrics::LabeledSeries>& series,
                   metrics::Field field, const std::string& title,
                   const std::string& y_label, const FigOptions& options);

/// Writes all results as a JSON array when options.json_path is set — the
/// machine-readable artifact CI's determinism gate byte-compares.
void MaybeWriteJson(const std::vector<core::ExperimentResult>& results,
                    const FigOptions& options);

/// Converts results to labeled series for the report formatters.
std::vector<metrics::LabeledSeries> ToSeries(
    const std::vector<core::ExperimentResult>& results);

/// Prints the standard run header (config echo) and per-protocol summaries
/// (plus the scheduler's shape when options.shards > 1).
void PrintHeader(const std::string& figure, const FigOptions& options);
/// The header's last line, shared with the ablation benches: the run-wide
/// flags (queries, seed, buckets, shards, plus --peers and --trace when
/// given) and a blank line, so a saved table says what it measured.
void PrintRunLine(const FigOptions& options);
void PrintSummaries(const std::vector<core::ExperimentResult>& results,
                    const FigOptions& options);

}  // namespace locaware::bench
