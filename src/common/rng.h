// Deterministic random number generation for simulations.
//
// Every experiment draws all randomness from a single seeded root Rng that is
// split into named sub-streams ("topology", "workload", "churn", ...). Two runs
// with the same (config, seed) therefore produce bit-identical results, and
// changing e.g. the workload seed does not perturb the topology.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace locaware {

/// \brief xoshiro256** pseudo-random generator (Blackman & Vigna).
///
/// Fast, high-quality, 256-bit state; seeded through SplitMix64 so that any
/// 64-bit seed (including 0) yields a well-mixed state.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit output.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in the inclusive range [lo, hi]. CHECK-fails if lo > hi.
  /// Uses Lemire's unbiased bounded generation.
  uint64_t UniformInt(uint64_t lo, uint64_t hi);

  /// Uniform double in [lo, hi). CHECK-fails if lo > hi.
  double UniformDouble(double lo, double hi);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Exponentially distributed value with the given rate (mean 1/rate).
  /// CHECK-fails if rate <= 0. Used for Poisson inter-arrival times.
  double Exponential(double rate);

  /// Fisher–Yates shuffle of `items` — any random-access container with
  /// size() and operator[] (std::vector, SmallVector). The draw sequence
  /// depends only on the element count, so the container type never changes
  /// results.
  template <typename Container>
  void Shuffle(Container* items) {
    if (items->size() < 2) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, i));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  /// O(k) time and no O(n) scratch for small k (sparse Fisher–Yates); the
  /// draw sequence — and therefore the sample — depends only on (n, k) and
  /// the stream state, never on which internal branch runs.
  std::vector<size_t> SampleIndices(size_t n, size_t k);

  /// The same sample written into caller storage: `out.size()` distinct
  /// indices from [0, n) (out.size() <= n). It makes exactly the draws of
  /// SampleIndices(n, out.size()) — k UniformInt(i, n - 1) calls for
  /// i = 0..k-1, in that order — so out[i] equals that call's element i and
  /// the stream is left in the same state. Allocates nothing for k <= 64.
  /// Instantiated for size_t and uint32_t (the id types an index can be).
  template <typename Index>
  void SampleIndices(size_t n, std::span<Index> out);

  /// Derives an independent child stream keyed by `name`. Children of the same
  /// parent with different names are decorrelated; the parent is not advanced.
  Rng Split(std::string_view name) const;

 private:
  uint64_t state_[4];
};

/// \brief Zipf(s) sampler over ranks {0, 1, ..., n-1} (rank 0 most popular).
///
/// P(rank = r) ∝ 1 / (r + 1)^s. Sampling is O(log n) via binary search over
/// the precomputed CDF; construction is O(n).
class ZipfDistribution {
 public:
  /// \param num_items number of ranks (> 0)
  /// \param exponent  skew parameter s (>= 0; 0 degenerates to uniform)
  ZipfDistribution(size_t num_items, double exponent);

  /// Draws a rank in [0, num_items).
  size_t Sample(Rng* rng) const;

  /// Probability mass of a given rank.
  double Pmf(size_t rank) const;

  size_t num_items() const { return cdf_.size(); }
  double exponent() const { return exponent_; }

 private:
  double exponent_;
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r); back() == 1.0
};

}  // namespace locaware
