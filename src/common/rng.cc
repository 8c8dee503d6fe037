#include "common/rng.h"

#include <cmath>
#include <utility>

#include "common/hash.h"
#include "common/small_vector.h"

namespace locaware {
namespace {

// SplitMix64: used to expand a 64-bit seed into the 256-bit xoshiro state.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t lo, uint64_t hi) {
  LOCAWARE_CHECK_LE(lo, hi);
  const uint64_t range = hi - lo + 1;  // wraps to 0 for the full 2^64 range
  if (range == 0) return NextU64();
  // Lemire's multiply-then-reject method: unbiased, usually one multiply.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < range) {
    const uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<uint64_t>(m);
    }
  }
  return lo + static_cast<uint64_t>(m >> 64);
}

double Rng::UniformDouble(double lo, double hi) {
  LOCAWARE_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double rate) {
  LOCAWARE_CHECK_GT(rate, 0.0);
  // Inversion; 1 - U avoids log(0).
  return -std::log(1.0 - NextDouble()) / rate;
}

std::vector<size_t> Rng::SampleIndices(size_t n, size_t k) {
  std::vector<size_t> out(k);
  SampleIndices(n, std::span<size_t>(out));
  return out;
}

template <typename Index>
void Rng::SampleIndices(size_t n, std::span<Index> out) {
  const size_t k = out.size();
  LOCAWARE_CHECK_LE(k, n);
  // Partial Fisher–Yates over the identity array [0, n). Both branches below
  // consume exactly k UniformInt(i, n - 1) draws and compute the same swaps,
  // so the sample is bit-identical regardless of which one runs — the split
  // is purely a cost model.
  //
  // The sparse branch never materializes the n-entry array: it tracks only
  // the O(k) displaced entries in an inline (index, value) list, making the
  // common catalog-generation call — n in the tens of thousands, k below a
  // dozen, once per file — O(k) with zero heap traffic instead of an O(n)
  // fill through a fresh ~200 KB scratch vector per call. The linear scans
  // are O(k^2) total, so past a small k the dense array is cheaper again.
  if (k <= 64) {
    SmallVector<std::pair<size_t, size_t>, 16> displaced;
    auto value_at = [&](size_t x) {
      for (const auto& [idx, v] : displaced) {
        if (idx == x) return v;
      }
      return x;
    };
    auto set_value = [&](size_t x, size_t v) {
      for (auto& [idx, cur] : displaced) {
        if (idx == x) {
          cur = v;
          return;
        }
      }
      displaced.push_back({x, v});
    };
    for (size_t i = 0; i < k; ++i) {
      size_t j = static_cast<size_t>(UniformInt(i, n - 1));
      const size_t vi = value_at(i);
      const size_t vj = value_at(j);
      set_value(i, vj);
      set_value(j, vi);
      out[i] = static_cast<Index>(vj);
    }
    return;
  }
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = static_cast<size_t>(UniformInt(i, n - 1));
    std::swap(indices[i], indices[j]);
  }
  for (size_t i = 0; i < k; ++i) out[i] = static_cast<Index>(indices[i]);
}

template void Rng::SampleIndices<size_t>(size_t, std::span<size_t>);
template void Rng::SampleIndices<uint32_t>(size_t, std::span<uint32_t>);

Rng Rng::Split(std::string_view name) const {
  // Derive a child seed from the *current* state and the stream name without
  // advancing the parent.
  uint64_t h = Fnv1a64(name);
  h ^= state_[0] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= state_[3] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return Rng(h);
}

ZipfDistribution::ZipfDistribution(size_t num_items, double exponent)
    : exponent_(exponent) {
  LOCAWARE_CHECK_GT(num_items, 0u);
  LOCAWARE_CHECK_GE(exponent, 0.0);
  cdf_.resize(num_items);
  double total = 0.0;
  for (size_t r = 0; r < num_items; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

size_t ZipfDistribution::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  // First rank whose CDF value exceeds u.
  size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ZipfDistribution::Pmf(size_t rank) const {
  LOCAWARE_CHECK_LT(rank, cdf_.size());
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace locaware
