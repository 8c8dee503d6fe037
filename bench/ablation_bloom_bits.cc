// Ablation: Bloom filter width (paper §5.1 sizes 1200 bits for an "enlarged
// response index with 50 filenames of 3 keywords").
//
// Narrow filters saturate: the false-positive rate climbs, queries get
// forwarded to neighbors that cannot answer, and routing precision decays
// into extra traffic. Wide filters waste update bandwidth. This bench sweeps
// the width and reports both sides of the trade.
#include <cstdio>
#include <future>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/experiment.h"
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const uint64_t queries = bench::ParseQueryCount(argc, argv, 2500);

  // Standalone saturation check at the paper's design point (150 keys).
  std::printf("== filter saturation at 150 keys (50 filenames x 3 keywords) ==\n");
  std::printf("%8s %8s %10s\n", "bits", "fill%", "est. fp%");
  for (size_t bits : {150u, 300u, 600u, 1200u, 2400u}) {
    bloom::BloomFilter bf(bits, 4);
    for (int i = 0; i < 150; ++i) bf.Insert("kw" + std::to_string(i));
    std::printf("%8zu %7.1f%% %9.2f%%\n", bits, bf.FillRatio() * 100,
                bf.EstimatedFpRate() * 100);
  }

  std::printf("\n== Locaware end-to-end, %llu queries ==\n",
              static_cast<unsigned long long>(queries));
  std::printf("%8s %10s %10s %12s %16s\n", "bits", "success", "msgs/q",
              "download ms", "gossip bytes");

  std::vector<std::future<std::string>> rows;
  for (size_t bits : {150u, 300u, 600u, 1200u, 2400u}) {
    rows.push_back(std::async(std::launch::async, [bits, queries] {
      core::ExperimentConfig cfg =
          core::MakePaperConfig(core::ProtocolKind::kLocaware, queries, 42);
      cfg.params.bloom_bits = bits;
      auto r = std::move(core::RunExperiment(cfg, 4)).ValueOrDie();
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%8zu %9.1f%% %10.1f %12.1f %16llu", bits,
                    r.summary.success_rate * 100, r.summary.msgs_per_query,
                    r.summary.avg_download_ms,
                    static_cast<unsigned long long>(r.summary.bloom_update_bytes));
      return std::string(buf);
    }));
  }
  for (auto& row : rows) std::printf("%s\n", row.get().c_str());

  std::printf(
      "\nreading guide: the saturation table is the design-point analysis —\n"
      "at 50 cached filenames a 1200-bit filter keeps fp under a few percent\n"
      "(the paper's sizing), while 150-600 bits would saturate. In the\n"
      "end-to-end runs per-peer indexes hold only a handful of filenames at\n"
      "this query volume, so even narrow filters stay unsaturated and the\n"
      "headline metrics barely move; what the width really buys is headroom\n"
      "for full caches, paid for linearly in gossip bytes.\n");
  return 0;
}
