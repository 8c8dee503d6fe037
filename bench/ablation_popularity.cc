// Analysis bench: where does index caching actually win?
//
// The paper's motivation rests on query temporal locality — "most queries
// request a few popular files" [11, 15] — so caching should pay off on the
// Zipf head and do little for the tail. This bench splits every metric by
// the popularity rank of the queried file and makes that gradient visible.
#include <cstdio>
#include <vector>

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const bench::FigOptions options = bench::ParseArgs(argc, argv);

  std::printf("== Analysis: metrics by file-popularity band (%llu queries) ==\n\n",
              static_cast<unsigned long long>(options.num_queries));

  const std::vector<uint32_t> boundaries{1, 10, 100, 1000, 3000};
  const char* band_names[] = {"rank 0 (head)", "ranks 1-9", "ranks 10-99",
                              "ranks 100-999", "ranks 1000+"};

  std::vector<core::ExperimentConfig> configs;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kFlooding, core::ProtocolKind::kDicas,
        core::ProtocolKind::kLocaware}) {
    configs.push_back(bench::MakeConfig(kind, options));
  }
  const std::vector<core::ExperimentResult> results = bench::RunAll(configs, options);

  for (const core::ExperimentResult& r : results) {
    const auto bands = metrics::ByPopularity(r.records, boundaries);
    std::printf("%s:\n", r.label.c_str());
    std::printf("  %-14s %9s %10s %12s %14s\n", "band", "queries", "success",
                "cache-hit", "download ms");
    for (size_t i = 0; i < bands.size(); ++i) {
      std::printf("  %-14s %9llu %9.1f%% %11.1f%% %14.1f\n", band_names[i],
                  static_cast<unsigned long long>(bands[i].queries),
                  bands[i].success_rate * 100, bands[i].cache_answer_share * 100,
                  bands[i].avg_download_ms);
    }
    std::printf("\n");
  }

  bench::MaybeWriteJson(results, options);

  std::printf(
      "reading guide: the head file is queried hundreds of times — caching\n"
      "protocols answer it almost entirely from indexes, while deep-tail\n"
      "files see few or no repeat queries and caching cannot help them.\n"
      "Flooding is popularity-blind: its success is flat across bands.\n"
      "This is the temporal-locality premise of the paper, measured.\n");
  return 0;
}
