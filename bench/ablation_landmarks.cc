// Ablation: landmark count (paper §5.1's design discussion).
//
// "We use 4 landmarks, which results in 24 possible locIds, because a larger
// number of landmarks will scatter the peers into many different localities.
// For instance, given 5 landmarks, i.e., 120 locIds, we only obtain an
// average of 8 peers with the same locId."
//
// This bench reproduces that reasoning quantitatively: for k = 2..6 it
// reports the locality census and the effect on Locaware's download distance
// and same-locality hit rate.
#include <cstdio>
#include <future>
#include <vector>

#include "core/engine.h"
#include "core/experiment.h"
#include "net/landmark.h"
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const uint64_t queries = bench::ParseQueryCount(argc, argv, 2500);

  std::printf("== Ablation: number of landmarks (Locaware, %llu queries) ==\n\n",
              static_cast<unsigned long long>(queries));
  std::printf("%4s %8s %10s %12s %10s %9s %12s %10s\n", "k", "locIds",
              "inhabited", "peers/locId", "success", "locm%", "download ms",
              "msgs/q");

  std::vector<std::future<std::string>> rows;
  for (size_t k = 2; k <= 6; ++k) {
    rows.push_back(std::async(std::launch::async, [k, queries] {
      core::ExperimentConfig cfg =
          core::MakePaperConfig(core::ProtocolKind::kLocaware, queries, 42);
      cfg.num_landmarks = k;
      auto engine = std::move(core::Engine::Create(cfg)).ValueOrDie();

      std::vector<LocId> ids;
      for (PeerId p = 0; p < engine->num_peers(); ++p) {
        ids.push_back(engine->loc_of(p));
      }
      const net::LocIdStats stats = net::AnalyzeLocIds(ids, k);

      engine->Run();
      const metrics::Summary s = metrics::Summarize(engine->metrics());

      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%4zu %8u %10u %12.1f %9.1f%% %9.1f %12.1f %10.1f", k,
                    stats.num_possible, stats.num_inhabited,
                    stats.mean_peers_per_inhabited, s.success_rate * 100,
                    s.loc_match_rate * 100, s.avg_download_ms, s.msgs_per_query);
      return std::string(buf);
    }));
  }
  for (auto& row : rows) std::printf("%s\n", row.get().c_str());

  std::printf(
      "\nreading guide: beyond 4 landmarks the locId space outgrows the peer\n"
      "population, same-locality providers become rare, and the download-\n"
      "distance gain decays — the paper's argument for k = 4.\n");
  return 0;
}
