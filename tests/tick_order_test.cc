#include "sim/tick_order.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace locaware::sim {
namespace {

/// The initial tick order before the radix sort: std::sort of the
/// (offset, peer) pairs.
std::vector<PeerId> ReferenceOrder(const std::vector<SimTime>& offsets) {
  std::vector<std::pair<SimTime, PeerId>> starts(offsets.size());
  for (PeerId p = 0; p < offsets.size(); ++p) starts[p] = {offsets[p], p};
  std::sort(starts.begin(), starts.end());
  std::vector<PeerId> order;
  order.reserve(starts.size());
  for (const auto& [offset, p] : starts) order.push_back(p);
  return order;
}

TEST(TickOrderTest, EmptyAndSinglePeer) {
  EXPECT_TRUE(TickOrder({}).empty());
  EXPECT_EQ(TickOrder(std::vector<SimTime>{0}), std::vector<PeerId>{0});
  EXPECT_EQ(TickOrder(std::vector<SimTime>{kSecond}), std::vector<PeerId>{0});
}

TEST(TickOrderTest, MatchesSortOfOffsetPeerPairs) {
  // The engine's draw: offsets uniform in [0, interval] for a 1 s interval
  // (two 11-bit passes); then a 3-value range, where nearly every offset
  // ties and the peer id alone orders them; then a 2^40 range (four passes).
  Rng rng(5);
  for (const uint64_t max : {uint64_t{kSecond}, uint64_t{2}, uint64_t{1} << 40}) {
    for (const size_t n : {size_t{2}, size_t{17}, size_t{5000}}) {
      std::vector<SimTime> offsets(n);
      for (SimTime& t : offsets) t = static_cast<SimTime>(rng.UniformInt(0, max));
      EXPECT_EQ(TickOrder(offsets), ReferenceOrder(offsets)) << "max=" << max << " n=" << n;
    }
  }
}

TEST(TickOrderTest, AllTiedKeepsPeerOrder) {
  const std::vector<SimTime> offsets(1000, 123456);
  const std::vector<PeerId> order = TickOrder(offsets);
  ASSERT_EQ(order.size(), offsets.size());
  for (PeerId p = 0; p < order.size(); ++p) EXPECT_EQ(order[p], p);
}

TEST(TickOrderTest, LargestOffsetUsesEveryDigit) {
  // The largest SimTime needs all six 11-bit passes; ties at both ends.
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  const std::vector<SimTime> offsets = {kMax, 0, kMax - 1, kMax, 1, 0, SimTime{1} << 33,
                                        kMax - (SimTime{1} << 55)};
  EXPECT_EQ(TickOrder(offsets), ReferenceOrder(offsets));
  EXPECT_EQ(TickOrder(offsets).back(), 3u);
}

TEST(TickOrderTest, NegativeOffsetDies) {
  EXPECT_DEATH(TickOrder(std::vector<SimTime>{0, -1}), "non-negative");
}

}  // namespace
}  // namespace locaware::sim
