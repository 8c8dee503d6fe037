#include "sim/tick_order.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace locaware::sim {

std::vector<PeerId> TickOrder(std::span<const SimTime> offsets) {
  const size_t n = offsets.size();
  std::vector<PeerId> order(n);
  std::iota(order.begin(), order.end(), PeerId{0});
  uint64_t max_offset = 0;
  for (SimTime t : offsets) {
    LOCAWARE_CHECK_GE(t, 0) << "tick offsets must be non-negative";
    max_offset = std::max(max_offset, static_cast<uint64_t>(t));
  }

  constexpr int kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  std::array<size_t, kDigitMask + 1> bucket_start;
  std::vector<PeerId> scratch(n);
  for (int shift = 0; shift < 64 && (max_offset >> shift) != 0; shift += kDigitBits) {
    auto digit = [&](PeerId p) {
      return (static_cast<uint64_t>(offsets[p]) >> shift) & kDigitMask;
    };
    bucket_start.fill(0);
    for (PeerId p : order) ++bucket_start[digit(p)];
    size_t next = 0;
    for (size_t& start : bucket_start) next += std::exchange(start, next);
    // Scanning in the current order keeps each bucket's peers in that order:
    // the pass is stable, so earlier (lower) digits break its ties.
    for (PeerId p : order) scratch[bucket_start[digit(p)]++] = p;
    order.swap(scratch);
  }
  return order;
}

}  // namespace locaware::sim
