// Ablation: does the locId mechanism need coherent geometry?
//
// Locaware's locIds are landmark-RTT orderings; their value rests on the
// assumption that "physically close peers are likely to produce the same
// ordering" (§4.1.1). This bench swaps the BRITE-style geometric underlay for
// a control model with i.i.d. pairwise RTTs — same band, zero spatial
// structure — and shows the download-distance gain evaporating.
#include <cstdio>
#include <future>
#include <vector>

#include "core/experiment.h"
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const uint64_t queries = bench::ParseQueryCount(argc, argv, 2500);

  std::printf("== Ablation: geometric vs geometry-free underlay (%llu queries) ==\n\n",
              static_cast<unsigned long long>(queries));
  std::printf("%-12s %-10s %10s %12s %10s\n", "protocol", "underlay", "success",
              "download ms", "loc-match");

  std::vector<std::future<std::string>> rows;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kFlooding, core::ProtocolKind::kLocaware}) {
    for (bool uniform : {false, true}) {
      rows.push_back(std::async(std::launch::async, [kind, uniform, queries] {
        core::ExperimentConfig cfg = core::MakePaperConfig(kind, queries, 42);
        cfg.use_uniform_underlay = uniform;
        auto r = std::move(core::RunExperiment(cfg, 4)).ValueOrDie();
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%-12s %-10s %9.1f%% %12.1f %9.1f%%",
                      r.label.c_str(), uniform ? "uniform" : "geometric",
                      r.summary.success_rate * 100, r.summary.avg_download_ms,
                      r.summary.loc_match_rate * 100);
        return std::string(buf);
      }));
    }
  }
  for (auto& row : rows) std::printf("%s\n", row.get().c_str());

  std::printf(
      "\nreading guide: on the uniform underlay locIds are noise, Locaware's\n"
      "same-locality matches stop predicting closeness, and its download\n"
      "distance falls back to the oblivious baseline — location awareness\n"
      "needs the Internet's spatial coherence, not just the ids.\n");
  return 0;
}
