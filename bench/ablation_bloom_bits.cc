// Ablation: Bloom filter width (paper §5.1 sizes 1200 bits for an "enlarged
// response index with 50 filenames of 3 keywords").
//
// Narrow filters saturate: the false-positive rate climbs, queries get
// forwarded to neighbors that cannot answer, and routing precision decays
// into extra traffic. Wide filters waste update bandwidth. This bench is the
// design-point side of the trade: each width's fill and false-positive rate
// at the paper's 150 keys. The end-to-end side (success, traffic, gossip
// bytes per width) is a sweep; bench/README.md lists the command.
#include <cstdio>
#include <string>

#include "bloom/bloom_filter.h"

int main(int argc, char** argv) {
  using namespace locaware;
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  std::printf("== filter saturation at 150 keys (50 filenames x 3 keywords) ==\n");
  std::printf("%8s %8s %10s\n", "bits", "fill%", "est. fp%");
  for (size_t bits : {150u, 300u, 600u, 1200u, 2400u}) {
    bloom::BloomFilter bf(bits, 4);
    for (int i = 0; i < 150; ++i) bf.Insert("kw" + std::to_string(i));
    std::printf("%8zu %7.1f%% %9.2f%%\n", bits, bf.FillRatio() * 100,
                bf.EstimatedFpRate() * 100);
  }
  std::printf(
      "\nreading guide: at 50 cached filenames a 1200-bit filter keeps fp\n"
      "under a few percent (the paper's sizing), while 150-600 bits would\n"
      "saturate.\n");
  return 0;
}
