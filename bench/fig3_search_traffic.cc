// Regenerates paper Figure 3: search traffic (messages produced per query)
// as the number of queries grows, for the four systems.
//
// Paper's reported shape: "Locaware like Dicas approaches, outperforms
// flooding by 98% in terms of search traffic reduction".
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const bench::FigOptions options = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 3: comparison of search traffic", options);

  const auto results = bench::RunAllProtocols(options);
  const auto series = bench::ToSeries(results);

  std::fputs(metrics::FormatFigureTable(series, metrics::Field::kMsgsPerQuery,
                                        "Search traffic (messages per query)")
                 .c_str(),
             stdout);
  std::printf("\nCSV:\n%s",
              metrics::FormatFigureCsv(series, metrics::Field::kMsgsPerQuery).c_str());
  bench::MaybeWriteSvg(series, metrics::Field::kMsgsPerQuery,
                       "Figure 3: comparison of search traffic", "messages per query",
                       options);
  bench::MaybeWriteJson(results, options);

  bench::PrintSummaries(results, options);
  std::printf("\nwire bytes per query (Gnutella 0.4 framing estimate):\n");
  for (const auto& r : results) {
    std::printf("  %-12s %10.0f bytes/query\n", r.label.c_str(),
                r.summary.bytes_per_query);
  }

  const double flooding = results[0].summary.msgs_per_query;
  for (int i = 1; i < 4; ++i) {
    const double reduction = (1.0 - results[i].summary.msgs_per_query / flooding) * 100.0;
    std::printf("headline: %s traffic reduction vs Flooding: %.1f%% (paper: ~98%%)\n",
                results[i].label.c_str(), reduction);
  }
  std::printf("maintenance: Locaware Bloom updates: %llu msgs, %llu bytes total\n",
              static_cast<unsigned long long>(results[3].summary.bloom_update_msgs),
              static_cast<unsigned long long>(results[3].summary.bloom_update_bytes));
  return 0;
}
