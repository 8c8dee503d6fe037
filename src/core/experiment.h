// One-call experiment runner: build an Engine from a config, run the full
// workload, and return the metrics the paper's figures are made of.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/experiment_config.h"
#include "metrics/metrics.h"
#include "metrics/report.h"

namespace locaware::core {

/// Everything a figure bench needs from one run.
struct ExperimentResult {
  std::string label;
  metrics::Summary summary;
  /// Metrics bucketed over the query sequence (the figures' x-axis).
  std::vector<metrics::BucketPoint> series;
  /// Raw per-query records, for custom slicing (popularity bands, hop depth,
  /// latency percentiles, ...).
  std::vector<metrics::QueryRecord> records;
};

/// Runs `config` to completion. `num_buckets` controls the x-axis resolution
/// of the returned series.
Result<ExperimentResult> RunExperiment(const ExperimentConfig& config,
                                       size_t num_buckets = 10);

/// Runs every config, at most one per hardware thread at a time, and returns
/// once all have finished. Result i belongs to configs[i]; a run that fails
/// leaves its Status in its slot and the others still run. The only place
/// experiments run concurrently: callers report failures after it returns.
std::vector<Result<ExperimentResult>> RunExperiments(
    const std::vector<ExperimentConfig>& configs, size_t num_buckets = 10);

}  // namespace locaware::core
