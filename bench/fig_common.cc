#include "fig_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "core/config_io.h"
#include "metrics/svg_plot.h"

namespace locaware::bench {

namespace {

/// Exits 2, like a usage error, when a flag's value did not parse.
void ExitUnlessOk(const Status& st) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  std::exit(2);
}

uint64_t UnsignedOrExit(const char* flag, const char* text) {
  auto parsed = core::ParseUnsigned(flag, text);
  ExitUnlessOk(parsed.status());
  return parsed.ValueOrDie();
}

}  // namespace

FigOptions ParseArgs(int argc, char** argv) {
  FigOptions options;
  // Flags that name a config field parse through that key's row of the
  // config table, so a bad value fails as it would in a config file.
  core::ExperimentConfig parsed;
  const auto set = [&parsed](std::string_view key, const char* value) {
    ExitUnlessOk(core::SetConfigValue(&parsed, key, value));
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--queries=", 10) == 0) {
      set("workload.num_queries", arg + 10);
      options.num_queries = parsed.workload.num_queries;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      set("seed", arg + 7);
      options.seed = parsed.seed;
    } else if (std::strncmp(arg, "--buckets=", 10) == 0) {
      options.buckets = UnsignedOrExit("--buckets", arg + 10);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      set("scheduler.shards", arg + 9);
      options.shards = parsed.scheduler.shards;
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      set("scheduler.workers", arg + 10);
      options.workers = parsed.scheduler.workers;
    } else if (std::strncmp(arg, "--placement=", 12) == 0) {
      set("scheduler.placement", arg + 12);
      options.placement = parsed.scheduler.placement;
    } else if (std::strncmp(arg, "--peers=", 8) == 0) {
      options.peers = UnsignedOrExit("--peers", arg + 8);
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      options.trace_path = arg + 8;
    } else if (std::strncmp(arg, "--svg=", 6) == 0) {
      options.svg_path = arg + 6;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      options.json_path = arg + 7;
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\n"
                   "usage: %s [--queries=N] [--seed=S] [--buckets=B] [--shards=K] "
                   "[--workers=W] [--placement=modulo|clustered] "
                   "[--peers=N] [--trace=PATH] [--svg=PATH] [--json=PATH]\n",
                   arg, argv[0]);
      std::exit(2);
    }
  }
  return options;
}

core::ExperimentConfig MakeConfig(core::ProtocolKind kind, const FigOptions& options) {
  core::ExperimentConfig config =
      core::MakePaperConfig(kind, options.num_queries, options.seed);
  config.scheduler.shards = options.shards;
  config.scheduler.workers = options.workers;
  config.scheduler.placement = options.placement;
  if (options.peers != 0) {
    config.num_peers = options.peers;
    // ~1 router per 25 peers keeps the locality structure meaningful;
    // the 1000 cap bounds the O(r * E log V) all-pairs precompute.
    config.underlay.num_routers =
        std::min<size_t>(1000, std::max(config.underlay.num_routers, options.peers / 25));
  }
  config.trace_path = options.trace_path;
  return config;
}

std::vector<core::ExperimentResult> RunAll(
    const std::vector<core::ExperimentConfig>& configs, const FigOptions& options) {
  auto runs = core::RunExperiments(configs, options.buckets);
  std::vector<core::ExperimentResult> results;
  results.reserve(runs.size());
  bool failed = false;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].ok()) {
      std::fprintf(stderr, "experiment %s failed: %s\n", configs[i].label.c_str(),
                   runs[i].status().ToString().c_str());
      failed = true;
      continue;
    }
    results.push_back(std::move(runs[i]).ValueOrDie());
  }
  if (failed) std::exit(1);
  return results;
}

std::vector<core::ExperimentResult> RunAllProtocols(const FigOptions& options) {
  std::vector<core::ExperimentConfig> configs;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kFlooding, core::ProtocolKind::kDicas,
        core::ProtocolKind::kDicasKeys, core::ProtocolKind::kLocaware}) {
    configs.push_back(MakeConfig(kind, options));
  }
  return RunAll(configs, options);
}

std::vector<metrics::LabeledSeries> ToSeries(
    const std::vector<core::ExperimentResult>& results) {
  std::vector<metrics::LabeledSeries> series;
  series.reserve(results.size());
  for (const auto& r : results) series.push_back({r.label, r.series});
  return series;
}

void PrintHeader(const std::string& figure, const FigOptions& options) {
  std::printf("== %s ==\n", figure.c_str());
  std::printf(
      "paper setup: 1000 peers, avg degree 3, TTL 7, 3000 files, 9000 keywords,\n"
      "             Zipf queries @0.00083 q/s/peer, 4 landmarks (24 locIds)\n");
  PrintRunLine(options);
}

void PrintRunLine(const FigOptions& options) {
  std::printf("run: queries=%llu seed=%llu buckets=%zu shards=%u",
              static_cast<unsigned long long>(options.num_queries),
              static_cast<unsigned long long>(options.seed), options.buckets,
              options.shards);
  if (options.peers != 0) std::printf(" peers=%zu", options.peers);
  if (!options.trace_path.empty())
    std::printf(" trace=%s", options.trace_path.c_str());
  std::printf("\n\n");
}

void MaybeWriteSvg(const std::vector<metrics::LabeledSeries>& series,
                   metrics::Field field, const std::string& title,
                   const std::string& y_label, const FigOptions& options) {
  if (options.svg_path.empty()) return;
  metrics::SvgChartOptions svg_options;
  svg_options.y_label = y_label;
  const Status st =
      metrics::WriteSvgChart(series, field, title, svg_options, options.svg_path);
  if (!st.ok()) {
    std::fprintf(stderr, "svg: %s\n", st.ToString().c_str());
    return;
  }
  std::printf("wrote %s\n", options.svg_path.c_str());
}

void MaybeWriteJson(const std::vector<core::ExperimentResult>& results,
                    const FigOptions& options) {
  if (options.json_path.empty()) return;
  std::FILE* out = std::fopen(options.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "json: cannot open %s\n", options.json_path.c_str());
    return;
  }
  std::fputs("[\n", out);
  for (size_t i = 0; i < results.size(); ++i) {
    std::fputs(core::ResultToJson(results[i]).c_str(), out);
    std::fputs(i + 1 < results.size() ? ",\n" : "\n", out);
  }
  std::fputs("]\n", out);
  std::fclose(out);
  std::printf("wrote %s\n", options.json_path.c_str());
}

void PrintSummaries(const std::vector<core::ExperimentResult>& results,
                    const FigOptions& options) {
  std::printf("\n%-12s %10s %12s %12s %10s %10s\n", "protocol", "success",
              "msgs/query", "download ms", "loc-match", "cache-hit");
  for (const auto& r : results) {
    std::printf("%-12s %9.1f%% %12.1f %12.1f %9.1f%% %9.1f%%\n", r.label.c_str(),
                r.summary.success_rate * 100.0, r.summary.msgs_per_query,
                r.summary.avg_download_ms, r.summary.loc_match_rate * 100.0,
                r.summary.cache_answer_share * 100.0);
  }
  // Scheduler shape, multi-shard runs only. Stays on stdout: windows/steals
  // depend on shard/worker counts and idle on the wall clock, so none of it
  // belongs in the byte-compared --json artifact.
  if (options.shards <= 1) return;
  for (const auto& r : results) {
    std::printf("%-12s scheduler: windows=%llu steals=%llu idle=%.1fms\n",
                r.label.c_str(),
                static_cast<unsigned long long>(r.summary.scheduler_windows),
                static_cast<unsigned long long>(r.summary.scheduler_steals),
                static_cast<double>(r.summary.scheduler_idle_ns) / 1e6);
  }
}

}  // namespace locaware::bench
