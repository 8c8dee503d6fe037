// Design-choice sweeps: one main for every protocol x knob grid.
//
//   sweep --vary=KEY=V1[,V2...] [--vary=KEY=V1[,V2...] ...]
//
// KEY is any config key (params.ttl, ri.max_filenames, seed,
// workload.num_queries, ...). The sweep runs the cross product of the value
// lists, the first --vary outermost. Each cell starts from
// MakePaperConfig(protocol), `protocol` being the cell's value or the config
// default when it is not varied, so protocol-specific defaults hold (Dicas
// keeps one provider per file); it then sets every other key in command-line
// order. Cells are independent experiments run by core::RunExperiments, at
// most one per hardware thread at a time, and rows print in cell order. A
// bad key or value, an empty list, a repeated key or no --vary at all exits
// 2 before anything runs.
// bench/README.md lists the commands that regenerate each ablation table.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "core/config_io.h"
#include "core/experiment.h"

namespace {

using namespace locaware;

/// One --vary: a config key and the values it takes, as typed.
struct Axis {
  std::string key;
  std::vector<std::string> values;
};

[[noreturn]] void Usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr, "%s\n", why.c_str());
  std::fprintf(stderr, "usage: %s --vary=KEY=V1[,V2...] [--vary=...]\n", argv0);
  std::exit(2);
}

std::vector<Axis> ParseAxes(int argc, char** argv) {
  std::vector<Axis> axes;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=', 7);
    if (!arg.starts_with("--vary=") || eq == std::string_view::npos) {
      Usage(argv[0], "unknown argument '" + std::string(arg) + "'");
    }
    Axis axis{std::string(arg.substr(7, eq - 7)), {}};
    for (const Axis& seen : axes) {
      if (seen.key == axis.key) Usage(argv[0], axis.key + ": varied twice");
    }
    const std::string_view list = arg.substr(eq + 1);
    for (size_t begin = 0;;) {
      const size_t comma = list.find(',', begin);
      axis.values.emplace_back(list.substr(begin, comma - begin));
      if (comma == std::string_view::npos) break;
      begin = comma + 1;
    }
    // Every value parses as it would in a config file; an empty one fails.
    core::ExperimentConfig probe;
    for (const std::string& value : axis.values) {
      const Status st = core::SetConfigValue(&probe, axis.key, value);
      if (!st.ok()) Usage(argv[0], st.ToString());
    }
    axes.push_back(std::move(axis));
  }
  if (axes.empty()) Usage(argv[0], "nothing to sweep: no --vary");
  return axes;
}

/// The value index of every axis in cell `cell`, the last axis fastest.
std::vector<size_t> Pick(const std::vector<Axis>& axes, size_t cell) {
  std::vector<size_t> pick(axes.size());
  for (size_t a = axes.size(); a-- > 0;) {
    pick[a] = cell % axes[a].values.size();
    cell /= axes[a].values.size();
  }
  return pick;
}

core::ExperimentConfig BuildCell(const std::vector<Axis>& axes, size_t cell) {
  const std::vector<size_t> pick = Pick(axes, cell);
  core::ExperimentConfig config;
  for (size_t a = 0; a < axes.size(); ++a) {
    if (axes[a].key == "protocol") {
      (void)core::SetConfigValue(&config, "protocol", axes[a].values[pick[a]]);
    }
  }
  config = core::MakePaperConfig(config.protocol);
  for (size_t a = 0; a < axes.size(); ++a) {
    if (axes[a].key == "protocol") continue;
    // Parsed once already in ParseAxes, so this cannot fail.
    (void)core::SetConfigValue(&config, axes[a].key, axes[a].values[pick[a]]);
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Axis> axes = ParseAxes(argc, argv);
  size_t num_cells = 1;
  for (const Axis& axis : axes) num_cells *= axis.values.size();

  std::vector<core::ExperimentConfig> configs;
  for (size_t cell = 0; cell < num_cells; ++cell) {
    configs.push_back(BuildCell(axes, cell));
  }
  const std::vector<Result<core::ExperimentResult>> runs = core::RunExperiments(configs);

  std::printf("== sweep: %zu cells ==\n", num_cells);
  const core::ExperimentConfig defaults;
  std::string fixed;
  bool protocol_given = false;
  for (const Axis& axis : axes) {
    protocol_given |= axis.key == "protocol";
    if (axis.values.size() == 1) fixed += " " + axis.key + "=" + axis.values[0];
  }
  if (!protocol_given) {
    fixed += " protocol=" + ToLower(core::ProtocolKindName(defaults.protocol));
  }
  if (!fixed.empty()) std::printf("fixed:%s\n", fixed.c_str());
  std::printf("\n");

  std::vector<int> widths(axes.size());
  for (size_t a = 0; a < axes.size(); ++a) {
    if (axes[a].values.size() < 2) continue;
    widths[a] = static_cast<int>(axes[a].key.size());
    for (const std::string& v : axes[a].values) {
      widths[a] = std::max(widths[a], static_cast<int>(v.size()));
    }
    std::printf("%-*s ", widths[a], axes[a].key.c_str());
  }
  std::printf("%10s %12s %12s %10s %10s %12s %15s %14s\n", "success", "msgs/query",
              "download ms", "loc-match", "cache-hit", "probes/query", "providers/query",
              "gossip bytes");

  int exit_code = 0;
  for (size_t cell = 0; cell < num_cells; ++cell) {
    const std::vector<size_t> pick = Pick(axes, cell);
    for (size_t a = 0; a < axes.size(); ++a) {
      if (widths[a] > 0) std::printf("%-*s ", widths[a], axes[a].values[pick[a]].c_str());
    }
    if (!runs[cell].ok()) {
      std::printf("failed: %s\n", runs[cell].status().ToString().c_str());
      exit_code = 1;
      continue;
    }
    const core::ExperimentResult& r = runs[cell].ValueOrDie();
    const metrics::Summary& s = r.summary;
    uint64_t probes = 0;
    for (const metrics::QueryRecord& q : r.records) probes += q.probe_msgs;
    const double probes_per_query =
        s.num_queries == 0 ? 0.0 : static_cast<double>(probes) / s.num_queries;
    const auto gossip_bytes = static_cast<unsigned long long>(s.bloom_update_bytes);
    std::printf("%9.1f%% %12.1f %12.1f %9.1f%% %9.1f%% %12.2f %15.2f %14llu\n",
                s.success_rate * 100, s.msgs_per_query, s.avg_download_ms,
                s.loc_match_rate * 100, s.cache_answer_share * 100, probes_per_query,
                s.avg_providers_offered, gossip_bytes);
  }
  return exit_code;
}
