// Ablation: popularity skew and the structured/unstructured crossover (PR 10).
//
// The hybrid's premise is that unstructured index caching wins exactly where
// query temporal locality exists (the Zipf head) and loses where it doesn't
// (the tail a flood's TTL horizon can't reach but a Chord lookup resolves in
// O(log n) hops). This bench sweeps the workload's Zipf exponent across all
// six protocols and splits success by popularity band, making the crossover
// measurable: as skew flattens, cache hit rates collapse while the DHT's
// success stays flat — and the hybrid tracks whichever plane is winning.
//
// Like every dynamic-scenario bench this runs on the parallel engine:
// --shards=K is wall-clock-only, and the --json output is byte-identical for
// every K at a fixed seed (CI diffs shards=1 vs shards=4).
#include <cstdio>
#include <string>
#include <vector>

#include "fig_common.h"
#include "metrics/report.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const bench::FigOptions options = bench::ParseArgs(argc, argv);
  const uint64_t queries = options.num_queries;

  std::printf("== Ablation: popularity skew vs protocol (%llu queries) ==\n",
              static_cast<unsigned long long>(queries));
  bench::PrintRunLine(options);

  struct Cell {
    core::ProtocolKind kind;
    double zipf;
  };
  std::vector<Cell> cells;
  for (double zipf : {0.4, 0.8, 1.2}) {
    for (core::ProtocolKind kind : core::AllProtocolKinds()) {
      cells.push_back({kind, zipf});
    }
  }

  std::vector<core::ExperimentConfig> configs;
  for (const Cell& cell : cells) {
    core::ExperimentConfig cfg = bench::MakeConfig(cell.kind, options);
    cfg.workload.zipf_exponent = cell.zipf;
    char label[64];
    std::snprintf(label, sizeof label, "%s zipf=%.1f", core::ProtocolKindName(cell.kind),
                  cell.zipf);
    cfg.label = label;
    configs.push_back(std::move(cfg));
  }
  const std::vector<core::ExperimentResult> results = bench::RunAll(configs, options);

  std::printf("%-21s %5s %8s %8s %8s %9s %9s %9s %9s\n", "cell", "zipf",
              "success", "msgs/q", "KB/q", "dht hops", "escalate", "head ok",
              "tail ok");
  double prev_zipf = -1;
  for (size_t i = 0; i < results.size(); ++i) {
    if (cells[i].zipf != prev_zipf && prev_zipf >= 0) std::printf("\n");
    prev_zipf = cells[i].zipf;
    const metrics::Summary& s = results[i].summary;
    // Head = the ten most popular ranks; tail = rank 100 and deeper.
    const auto bands =
        metrics::ByPopularity(results[i].records, {10, 100, 1u << 30});
    const double mean_hops =
        s.dht_lookups == 0
            ? 0.0
            : static_cast<double>(s.dht_hops) / static_cast<double>(s.dht_lookups);
    std::printf("%-21s %5.1f %7.1f%% %8.1f %8.2f %9.2f %9llu %8.1f%% %8.1f%%\n",
                results[i].label.c_str(), cells[i].zipf, s.success_rate * 100,
                s.msgs_per_query, s.bytes_per_query / 1024.0, mean_hops,
                static_cast<unsigned long long>(s.hybrid_escalations),
                bands[0].success_rate * 100, bands[2].success_rate * 100);
  }

  bench::MaybeWriteJson(results, options);

  std::printf(
      "\nreading guide: at high skew ('zipf=1.2') almost every query hits the\n"
      "head, indexes stay hot, and the cache protocols match flooding's\n"
      "success at a fraction of its traffic — the hybrid rarely escalates. As\n"
      "the workload flattens ('zipf=0.4') repeat queries vanish: cache hit\n"
      "rates collapse and flooding's TTL horizon misses rare files, while the\n"
      "DHT finds every published key in O(log n) hops regardless of rank. The\n"
      "hybrid escalates exactly on the misses, buying the tail's findability\n"
      "without giving up the head's cheap cache answers.\n");
  return 0;
}
