#include "bloom/bloom_filter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/hash.h"

namespace locaware::bloom {

BloomFilter::BloomFilter(size_t num_bits, size_t num_hashes)
    : num_bits_(num_bits), num_hashes_(num_hashes) {
  LOCAWARE_CHECK_GT(num_bits, 0u);
  LOCAWARE_CHECK_GE(num_hashes, 1u);
  LOCAWARE_CHECK_LE(num_hashes, 16u);
}

void BloomFilter::Materialize() {
  if (words_.empty()) words_.assign((num_bits_ + 63) / 64, 0);
}

std::vector<uint32_t> BloomFilter::ProbePositions(std::string_view key) const {
  return ProbePositions(BloomKeyHash(key));
}

std::vector<uint32_t> BloomFilter::ProbePositions(const KeyHash128& key) const {
  std::vector<uint32_t> positions(num_hashes_);
  for (size_t i = 0; i < num_hashes_; ++i) {
    positions[i] = ProbePosition(key, i);
  }
  return positions;
}

void BloomFilter::Insert(std::string_view key) { Insert(BloomKeyHash(key)); }

void BloomFilter::Insert(const KeyHash128& key) {
  for (size_t i = 0; i < num_hashes_; ++i) {
    SetBit(ProbePosition(key, i));
  }
}

bool BloomFilter::MayContain(std::string_view key) const {
  return MayContain(BloomKeyHash(key));
}

bool BloomFilter::MayContain(const KeyHash128& key) const {
  for (size_t i = 0; i < num_hashes_; ++i) {
    if (!TestBit(ProbePosition(key, i))) return false;
  }
  return true;
}

void BloomFilter::Clear() { words_.clear(); }

size_t BloomFilter::CountOnes() const {
  size_t ones = 0;
  for (uint64_t w : words_) ones += static_cast<size_t>(std::popcount(w));
  return ones;
}

double BloomFilter::FillRatio() const {
  return static_cast<double>(CountOnes()) / static_cast<double>(num_bits_);
}

double BloomFilter::EstimatedFpRate() const {
  return std::pow(FillRatio(), static_cast<double>(num_hashes_));
}

bool BloomFilter::TestBit(size_t pos) const {
  LOCAWARE_CHECK_LT(pos, num_bits_);
  return (WordAt(pos / 64) >> (pos % 64)) & 1u;
}

void BloomFilter::SetBit(size_t pos) {
  LOCAWARE_CHECK_LT(pos, num_bits_);
  Materialize();
  words_[pos / 64] |= uint64_t{1} << (pos % 64);
}

void BloomFilter::ClearBit(size_t pos) {
  LOCAWARE_CHECK_LT(pos, num_bits_);
  if (words_.empty()) return;
  words_[pos / 64] &= ~(uint64_t{1} << (pos % 64));
}

void BloomFilter::ToggleBit(size_t pos) {
  LOCAWARE_CHECK_LT(pos, num_bits_);
  Materialize();
  words_[pos / 64] ^= uint64_t{1} << (pos % 64);
}

std::vector<uint32_t> BloomFilter::DiffPositions(const BloomFilter& other) const {
  LOCAWARE_CHECK_EQ(num_bits_, other.num_bits_) << "filter width mismatch";
  std::vector<uint32_t> diff;
  const size_t num_words = std::max(words_.size(), other.words_.size());
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t x = WordAt(w) ^ other.WordAt(w);
    while (x != 0) {
      const int bit = std::countr_zero(x);
      diff.push_back(static_cast<uint32_t>(w * 64 + bit));
      x &= x - 1;
    }
  }
  return diff;
}

bool BloomFilter::operator==(const BloomFilter& other) const {
  return num_bits_ == other.num_bits_ && num_hashes_ == other.num_hashes_ &&
         DiffPositions(other).empty();
}

std::string BloomFilter::Describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "m=%zu k=%zu ones=%zu fill=%.1f%%", num_bits_,
                num_hashes_, CountOnes(), FillRatio() * 100.0);
  return buf;
}

size_t OptimalNumHashes(size_t num_bits, size_t expected_keys) {
  LOCAWARE_CHECK_GT(expected_keys, 0u);
  const double k =
      std::round(static_cast<double>(num_bits) / static_cast<double>(expected_keys) *
                 std::log(2.0));
  if (k < 1) return 1;
  if (k > 16) return 16;
  return static_cast<size_t>(k);
}

}  // namespace locaware::bloom
