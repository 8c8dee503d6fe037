// Protocol comparison: the paper's full evaluation in miniature — every
// registered protocol on one workload, with the three figures' metrics side
// by side. The list comes from core::AllProtocolKinds(), so a protocol added
// to the registry (like PR 10's dht/hybrid) shows up here automatically.
//
// Run with no arguments for a ~2 s demo, or pass a query count:
//   ./build/examples/protocol_comparison 5000
#include <cstdio>
#include <cstdlib>
#include <future>
#include <vector>

#include "core/config_io.h"
#include "core/experiment.h"
#include "metrics/report.h"

int main(int argc, char** argv) {
  using namespace locaware;
  uint64_t num_queries = 1500;
  if (argc > 1) {
    auto parsed = core::ParseUnsigned("queries", argv[1]);
    if (argc > 2 || !parsed.ok()) {
      if (!parsed.ok()) std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      std::fprintf(stderr, "usage: %s [QUERIES]\n", argv[0]);
      return 2;
    }
    num_queries = parsed.ValueOrDie();
  }

  // One scaled-down §5.1 configuration per protocol; identical seed, so every
  // system faces the same topology, catalog and query stream.
  auto make_config = [&](core::ProtocolKind kind) {
    core::ExperimentConfig cfg = core::MakePaperConfig(kind, num_queries, /*seed=*/5);
    cfg.num_peers = 400;
    cfg.underlay.num_routers = 100;
    cfg.catalog.num_files = 1200;
    cfg.catalog.keyword_pool_size = 3600;
    cfg.workload.query_rate_per_peer_s = 0.005;
    return cfg;
  };

  std::vector<std::future<core::ExperimentResult>> futures;
  for (core::ProtocolKind kind : core::AllProtocolKinds()) {
    futures.push_back(std::async(std::launch::async, [&, kind] {
      auto r = core::RunExperiment(make_config(kind), /*num_buckets=*/6);
      if (!r.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", core::ProtocolKindName(kind),
                     r.status().ToString().c_str());
        std::exit(1);
      }
      return std::move(r).ValueOrDie();
    }));
  }

  std::vector<core::ExperimentResult> results;
  std::vector<metrics::LabeledSeries> series;
  for (auto& f : futures) {
    results.push_back(f.get());
    series.push_back({results.back().label, results.back().series});
  }

  std::printf("400 peers, 1200 files, %llu keyword queries, TTL 7\n\n",
              static_cast<unsigned long long>(num_queries));

  std::fputs(metrics::FormatFigureTable(series, metrics::Field::kMsgsPerQuery,
                                        "[Fig.3] search traffic (messages/query)")
                 .c_str(),
             stdout);
  std::printf("\n");
  std::fputs(metrics::FormatFigureTable(series, metrics::Field::kSuccessRate,
                                        "[Fig.4] success rate")
                 .c_str(),
             stdout);
  std::printf("\n");
  std::fputs(metrics::FormatFigureTable(series, metrics::Field::kDownloadMs,
                                        "[Fig.2] download distance (ms RTT)")
                 .c_str(),
             stdout);

  std::printf("\nsummary:\n%-12s %10s %12s %13s %11s\n", "protocol", "success",
              "msgs/query", "download ms", "loc-match");
  for (const auto& r : results) {
    std::printf("%-12s %9.1f%% %12.1f %13.1f %10.1f%%\n", r.label.c_str(),
                r.summary.success_rate * 100, r.summary.msgs_per_query,
                r.summary.avg_download_ms, r.summary.loc_match_rate * 100);
  }
  std::printf(
      "\nreading guide: Flooding buys its success rate with two orders of\n"
      "magnitude more traffic; Locaware keeps Dicas-level traffic, answers\n"
      "more queries than either Dicas variant, and downloads from closer\n"
      "providers — the paper's three claims on one screen. The dht/hybrid\n"
      "rows are PR 10's structured extensions: Chord lookups reach flooding-\n"
      "level success at a fraction of its traffic, and the hybrid adds\n"
      "Locaware's close-provider selection on top.\n");
  return 0;
}
