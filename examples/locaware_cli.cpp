// locaware_cli — run any experiment from the command line.
//
//   locaware_cli --protocol=locaware --queries=5000 --seed=42
//   locaware_cli --config=my_run.cfg --json
//   locaware_cli --protocol=dicas --save-config=dicas.cfg --dry-run
//   locaware_cli --protocol=locaware --set churn.enabled=true --set params.ttl=5
//   locaware_cli --save-trace=storm.bin --dry-run
//   locaware_cli convert storm.trace storm.bin
//
// Precedence: paper defaults < --config file < individual flags/--set pairs.
// Output: human summary by default, --json for machine consumption,
// --svg=PREFIX to drop per-metric charts.
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/workload.h"
#include "core/config_io.h"
#include "core/experiment.h"
#include "metrics/svg_plot.h"

namespace {

using namespace locaware;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "       %s convert IN OUT\n"
               "  --protocol=NAME     flooding | dicas | dicas-keys | locaware |\n"
               "                      dht | hybrid\n"
               "  --queries=N         number of queries (default 5000)\n"
               "  --seed=S            RNG seed (default 42)\n"
               "  --buckets=B         series resolution (default 10)\n"
               "  --config=FILE       load a config file (key = value)\n"
               "  --set KEY=VALUE     override any config key (repeatable), e.g.\n"
               "                      scheduler.shards=8 scheduler.placement=clustered\n"
               "  --save-config=FILE  write the effective config and continue\n"
               "  --save-trace=FILE   write the config's query trace and continue\n"
               "                      (binary when FILE ends in .bin, else text)\n"
               "  --dry-run           stop after config handling, run nothing\n"
               "  --json              print the result as JSON\n"
               "  --svg=PREFIX        write PREFIX-{success,traffic,distance}.svg\n"
               "\n"
               "convert rewrites a trace between the text and binary formats\n"
               "(direction chosen by OUT's extension: .bin selects binary).\n",
               argv0, argv0);
  return 2;
}

// Flag values parse through the config's key table (or its unsigned
// parser), so a bad one fails exactly as it would in a config file; like a
// usage error, it exits 2 before anything runs.
bool FlagOk(const Status& st, const char* arg) {
  if (!st.ok()) std::fprintf(stderr, "error in '%s': %s\n", arg, st.ToString().c_str());
  return st.ok();
}

bool EndsWithBin(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
}

// `convert IN OUT`: re-encode a trace through a scratch catalog. LoadAuto
// interns every keyword the trace mentions, which is all SaveTrace/SaveBinary
// need to resolve them back to strings.
int Convert(const char* argv0, int argc, char** argv) {
  if (argc != 4) return Usage(argv0);
  const std::string in = argv[2];
  const std::string out = argv[3];
  catalog::FileCatalog scratch;
  auto loaded = catalog::QueryWorkload::LoadAuto(in, &scratch);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", in.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  const catalog::QueryWorkload workload = std::move(loaded).ValueOrDie();
  const Status st = EndsWithBin(out) ? workload.SaveBinary(out, scratch)
                                     : workload.SaveTrace(out, scratch);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", out.c_str(), st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu queries to %s (%s)\n",
               workload.queries().size(), out.c_str(),
               EndsWithBin(out) ? "binary" : "text");
  return 0;
}

// Regenerates the catalog and workload exactly as Engine::Setup would for
// `config` (same name-keyed RNG splits) and saves the query trace, so a
// later run with trace_path replays byte-identical metrics.
int SaveTrace(const core::ExperimentConfig& config, const std::string& path) {
  Rng root(config.seed);
  Rng catalog_rng = root.Split("catalog");
  auto catalog = catalog::FileCatalog::Generate(config.catalog, &catalog_rng);
  if (!catalog.ok()) {
    std::fprintf(stderr, "error: %s\n", catalog.status().ToString().c_str());
    return 1;
  }
  Rng workload_rng = root.Split("workload");
  auto workload = catalog::QueryWorkload::Generate(
      config.workload, catalog.ValueOrDie(), config.num_peers, &workload_rng);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  const Status st =
      EndsWithBin(path)
          ? workload.ValueOrDie().SaveBinary(path, catalog.ValueOrDie())
          : workload.ValueOrDie().SaveTrace(path, catalog.ValueOrDie());
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote trace to %s (%s)\n", path.c_str(),
               EndsWithBin(path) ? "binary" : "text");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "convert") == 0) {
    return Convert(argv[0], argc, argv);
  }

  core::ExperimentConfig config =
      core::MakePaperConfig(core::ProtocolKind::kLocaware, 5000, 42);
  size_t buckets = 10;
  bool as_json = false;
  bool dry_run = false;
  std::string save_config_path;
  std::string save_trace_path;
  std::string svg_prefix;
  std::vector<std::string> overrides;

  // First pass: config file (so flags can override it regardless of order).
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--config=", 9) == 0) {
      auto loaded = core::LoadConfig(argv[i] + 9);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
        return 1;
      }
      config = loaded.ValueOrDie();
    }
  }

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--config=", 9) == 0) {
      continue;  // handled above
    } else if (std::strncmp(arg, "--protocol=", 11) == 0) {
      if (!FlagOk(core::SetConfigValue(&config, "protocol", arg + 11), arg)) return 2;
      config.params = core::MakeDefaultParams(config.protocol);
      config.label = core::ProtocolKindName(config.protocol);
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      if (!FlagOk(core::SetConfigValue(&config, "workload.num_queries", arg + 10), arg)) {
        return 2;
      }
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!FlagOk(core::SetConfigValue(&config, "seed", arg + 7), arg)) return 2;
    } else if (std::strncmp(arg, "--buckets=", 10) == 0) {
      auto parsed = core::ParseUnsigned("--buckets", arg + 10);
      if (!FlagOk(parsed.status(), arg)) return 2;
      buckets = parsed.ValueOrDie();
    } else if (std::strcmp(arg, "--set") == 0 && i + 1 < argc) {
      overrides.emplace_back(argv[++i]);
    } else if (std::strncmp(arg, "--save-config=", 14) == 0) {
      save_config_path = arg + 14;
    } else if (std::strncmp(arg, "--save-trace=", 13) == 0) {
      save_trace_path = arg + 13;
    } else if (std::strcmp(arg, "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      as_json = true;
    } else if (std::strncmp(arg, "--svg=", 6) == 0) {
      svg_prefix = arg + 6;
    } else {
      return Usage(argv[0]);
    }
  }

  // --set overrides apply last, each through the key's row of the config
  // table, as a `key = value` line of a config file would.
  for (const std::string& kv : overrides) {
    const size_t eq = kv.find('=');
    const Status st =
        eq == std::string::npos
            ? Status::InvalidArgument("expected KEY=VALUE")
            : core::SetConfigValue(&config, std::string_view(kv).substr(0, eq),
                                   std::string_view(kv).substr(eq + 1));
    if (!FlagOk(st, ("--set " + kv).c_str())) return 2;
  }

  if (!save_config_path.empty()) {
    const Status st = core::SaveConfig(config, save_config_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote config to %s\n", save_config_path.c_str());
  }
  if (!save_trace_path.empty()) {
    const int rc = SaveTrace(config, save_trace_path);
    if (rc != 0) return rc;
  }
  if (dry_run) {
    std::fputs(core::FormatConfig(config).c_str(), stdout);
    return 0;
  }

  auto result = core::RunExperiment(config, buckets);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const core::ExperimentResult& r = result.ValueOrDie();

  if (as_json) {
    std::printf("%s\n", core::ResultToJson(r).c_str());
  } else {
    std::printf("%s: %llu queries, seed %llu\n", r.label.c_str(),
                static_cast<unsigned long long>(r.summary.num_queries),
                static_cast<unsigned long long>(config.seed));
    std::printf("  success rate       %.2f%%\n", r.summary.success_rate * 100);
    std::printf("  search traffic     %.1f msgs/query (%.0f bytes/query)\n",
                r.summary.msgs_per_query, r.summary.bytes_per_query);
    std::printf("  download distance  %.1f ms RTT\n", r.summary.avg_download_ms);
    std::printf("  same-locality DLs  %.1f%%\n", r.summary.loc_match_rate * 100);
    std::printf("  cache-served hits  %.1f%%\n", r.summary.cache_answer_share * 100);
    if (r.summary.bloom_update_msgs > 0) {
      std::printf("  bloom maintenance  %llu msgs / %llu bytes\n",
                  static_cast<unsigned long long>(r.summary.bloom_update_msgs),
                  static_cast<unsigned long long>(r.summary.bloom_update_bytes));
    }
    if (r.summary.churn_events > 0) {
      std::printf("  churn              %llu events, %llu stale failures\n",
                  static_cast<unsigned long long>(r.summary.churn_events),
                  static_cast<unsigned long long>(r.summary.stale_failures));
    }
  }

  if (!svg_prefix.empty()) {
    const std::vector<metrics::LabeledSeries> series{{r.label, r.series}};
    struct Chart {
      metrics::Field field;
      const char* suffix;
      const char* title;
      const char* y_label;
    };
    const Chart charts[] = {
        {metrics::Field::kSuccessRate, "success", "Success rate", "fraction"},
        {metrics::Field::kMsgsPerQuery, "traffic", "Search traffic",
         "messages per query"},
        {metrics::Field::kDownloadMs, "distance", "Download distance", "ms RTT"},
    };
    for (const Chart& chart : charts) {
      metrics::SvgChartOptions options;
      options.y_label = chart.y_label;
      const std::string path = svg_prefix + "-" + chart.suffix + ".svg";
      const Status st =
          metrics::WriteSvgChart(series, chart.field, chart.title, options, path);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  }
  return 0;
}
