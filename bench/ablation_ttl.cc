// Ablation: query TTL (the paper fixes TTL = 7, the classic Gnutella value).
//
// TTL bounds the search horizon: for Flooding it directly trades traffic for
// success; for Locaware the Bloom-routed walk saturates much earlier, which
// is the whole point of directed search.
#include <cstdio>
#include <future>
#include <vector>

#include "core/experiment.h"
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const uint64_t queries = bench::ParseQueryCount(argc, argv, 2000);

  std::printf("== Ablation: query TTL (%llu queries) ==\n\n",
              static_cast<unsigned long long>(queries));
  std::printf("%-12s %5s %10s %12s %12s\n", "protocol", "TTL", "success",
              "msgs/query", "download ms");

  std::vector<std::future<std::string>> rows;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kFlooding, core::ProtocolKind::kLocaware}) {
    for (uint32_t ttl : {3u, 5u, 7u, 9u}) {
      rows.push_back(std::async(std::launch::async, [kind, ttl, queries] {
        core::ExperimentConfig cfg = core::MakePaperConfig(kind, queries, 42);
        cfg.params.ttl = ttl;
        auto r = std::move(core::RunExperiment(cfg, 4)).ValueOrDie();
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%-12s %5u %9.1f%% %12.1f %12.1f",
                      r.label.c_str(), ttl, r.summary.success_rate * 100,
                      r.summary.msgs_per_query, r.summary.avg_download_ms);
        return std::string(buf);
      }));
    }
  }
  for (auto& row : rows) std::printf("%s\n", row.get().c_str());

  std::printf(
      "\nreading guide: Flooding's traffic grows multiplicatively with TTL\n"
      "while Locaware's directed walk grows additively — the reduction gap\n"
      "widens with the horizon.\n");
  return 0;
}
