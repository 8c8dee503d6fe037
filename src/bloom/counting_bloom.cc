#include "bloom/counting_bloom.h"

#include "common/check.h"

namespace locaware::bloom {

CountingBloomFilter::CountingBloomFilter(size_t num_bits, size_t num_hashes)
    : plain_(num_bits, num_hashes) {}

void CountingBloomFilter::Insert(std::string_view key) { Insert(BloomKeyHash(key)); }

void CountingBloomFilter::Insert(const KeyHash128& key) {
  if (counters_.empty()) counters_.assign(plain_.num_bits(), 0);
  for (size_t i = 0; i < plain_.num_hashes(); ++i) {
    const uint32_t pos = plain_.ProbePosition(key, i);
    uint8_t& c = counters_[pos];
    if (c < kMaxCount) ++c;
    plain_.SetBit(pos);
  }
}

void CountingBloomFilter::Remove(std::string_view key) { Remove(BloomKeyHash(key)); }

void CountingBloomFilter::Remove(const KeyHash128& key) {
  LOCAWARE_CHECK(!counters_.empty())
      << "Remove of never-inserted key (counter underflow)";
  for (size_t i = 0; i < plain_.num_hashes(); ++i) {
    const uint32_t pos = plain_.ProbePosition(key, i);
    uint8_t& c = counters_[pos];
    LOCAWARE_CHECK_GT(c, 0u) << "Remove of never-inserted key (counter underflow)";
    if (c < kMaxCount) {  // saturated counters stay pinned
      --c;
      if (c == 0) plain_.ClearBit(pos);
    }
  }
}

bool CountingBloomFilter::MayContain(std::string_view key) const {
  return plain_.MayContain(key);
}

bool CountingBloomFilter::MayContain(const KeyHash128& key) const {
  return plain_.MayContain(key);
}

void CountingBloomFilter::Clear() {
  counters_.clear();
  plain_.Clear();
}

uint8_t CountingBloomFilter::CounterAt(size_t pos) const {
  LOCAWARE_CHECK_LT(pos, plain_.num_bits());
  return counters_.empty() ? 0 : counters_[pos];
}

size_t CountingBloomFilter::SaturatedCount() const {
  size_t n = 0;
  for (uint8_t c : counters_) n += (c == kMaxCount);
  return n;
}

}  // namespace locaware::bloom
