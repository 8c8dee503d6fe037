// Counting Bloom filter (Fan et al., "Summary Cache", SIGCOMM 1998 — the
// paper's reference [8]). A plain Bloom filter cannot delete, but Locaware's
// response index evicts filenames constantly ("built incrementally as new
// filenames are inserted in RI and existing ones discarded", §4.2). Each peer
// therefore keeps a *counting* filter locally and exports its plain projection
// (counter > 0 → bit set) for neighbors.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"

namespace locaware::bloom {

/// \brief Bloom filter with 4-bit counters supporting deletion.
///
/// Counters saturate at 15 (and once saturated are never decremented, the
/// standard safety rule: a saturated counter may be shared by more keys than
/// it can count, so decrementing could introduce false negatives).
///
/// Storage contract (the plain filter's): empty costs nothing. The counters
/// are allocated on the first Insert; until then CounterAt reads 0, the
/// projection is an empty BloomFilter and Remove CHECK-fails like any other
/// never-inserted key. Clear returns both to empty.
class CountingBloomFilter {
 public:
  /// Same shape parameters as the plain filter it projects to.
  CountingBloomFilter(size_t num_bits, size_t num_hashes);

  /// Increments the key's counters.
  void Insert(std::string_view key);
  void Insert(const KeyHash128& key);

  /// Decrements the key's counters. Removing a key that was never inserted is
  /// a caller bug; it is CHECK-detected when a counter would underflow.
  void Remove(std::string_view key);
  void Remove(const KeyHash128& key);

  /// Membership test (same semantics as BloomFilter::MayContain).
  bool MayContain(std::string_view key) const;
  bool MayContain(const KeyHash128& key) const;

  void Clear();

  size_t num_bits() const { return plain_.num_bits(); }
  size_t num_hashes() const { return plain_.num_hashes(); }
  uint8_t CounterAt(size_t pos) const;
  /// Number of saturated (=15) counters; a quality signal for sizing.
  size_t SaturatedCount() const;

  /// The plain 1-bit projection that is gossiped to neighbors. Maintained
  /// incrementally, so this is O(1).
  const BloomFilter& projection() const { return plain_; }

 private:
  static constexpr uint8_t kMaxCount = 15;

  // One nibble used per counter, byte-stored; empty until the first Insert.
  std::vector<uint8_t> counters_;
  BloomFilter plain_;
};

}  // namespace locaware::bloom
