// Microbenchmarks for the Bloom-filter subsystem: the per-query cost of
// Locaware's routing checks, the per-update cost of delta gossip, and the
// per-handshake cost of copying a filter that has never seen a key (which
// the storage contract makes allocation-free; `allocs/op` tracks it).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bloom/bloom_delta.h"
#include "bloom/bloom_filter.h"
#include "bloom/counting_bloom.h"

// --- allocation accounting ---------------------------------------------------
// Bench-binary-wide operator new/delete overrides with a thread-local
// counter; only deltas around measured regions are reported.
namespace {
thread_local uint64_t g_alloc_count = 0;
}  // namespace

// Out of line on purpose: once GCC inlines one of these into a call site, it
// sees operator new's memory reach free, or malloc's reach operator delete,
// and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using locaware::bloom::BloomDelta;
using locaware::bloom::BloomFilter;
using locaware::bloom::CountingBloomFilter;

std::vector<std::string> MakeKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back("keyword" + std::to_string(i));
  return keys;
}

void BM_BloomInsert(benchmark::State& state) {
  const auto keys = MakeKeys(1024);
  BloomFilter bf(static_cast<size_t>(state.range(0)), 4);
  size_t i = 0;
  for (auto _ : state) {
    bf.Insert(keys[i++ & 1023]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert)->Arg(1200)->Arg(4096)->Arg(65536);

void BM_BloomMayContain(benchmark::State& state) {
  // The hot path: a Locaware node checks each neighbor filter against every
  // query keyword. Filter filled to the paper's design point (~150 keys).
  const auto keys = MakeKeys(1024);
  BloomFilter bf(static_cast<size_t>(state.range(0)), 4);
  for (size_t i = 0; i < 150; ++i) bf.Insert(keys[i]);
  size_t i = 0;
  bool sink = false;
  for (auto _ : state) {
    sink ^= bf.MayContain(keys[i++ & 1023]);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomMayContain)->Arg(1200)->Arg(4096);

void BM_EmptyFilterCopy(benchmark::State& state) {
  // Every link handshake copies the peer's advertised filter, and in a
  // Locaware run nearly all of them are still empty: the copy must not
  // touch the allocator.
  const BloomFilter fresh(1200, 4);
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    BloomFilter copy = fresh;
    benchmark::DoNotOptimize(copy);
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EmptyFilterCopy);

void BM_CountingInsertRemove(benchmark::State& state) {
  const auto keys = MakeKeys(1024);
  CountingBloomFilter cbf(1200, 4);
  size_t i = 0;
  for (auto _ : state) {
    const std::string& k = keys[i++ & 1023];
    cbf.Insert(k);
    cbf.Remove(k);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CountingInsertRemove);

void BM_DeltaComputeOneFilename(benchmark::State& state) {
  // One cached filename = 3 keywords x 4 probes: the paper's <=12 changed
  // bits. Measures ComputeDelta over the full 1200-bit vector.
  BloomFilter before(1200, 4);
  for (size_t i = 0; i < 150; ++i) before.Insert("base" + std::to_string(i));
  BloomFilter after = before;
  after.Insert("fresh-alpha");
  after.Insert("fresh-beta");
  after.Insert("fresh-gamma");
  for (auto _ : state) {
    BloomDelta delta = ComputeDelta(before, after);
    benchmark::DoNotOptimize(delta);
  }
}
BENCHMARK(BM_DeltaComputeOneFilename);

void BM_DeltaEncodeDecode(benchmark::State& state) {
  BloomFilter before(1200, 4), after(1200, 4);
  for (int i = 0; i < state.range(0); ++i) after.ToggleBit(i * 7 % 1200);
  const BloomDelta delta = ComputeDelta(before, after);
  for (auto _ : state) {
    const auto wire = EncodeDelta(delta);
    auto decoded = locaware::bloom::DecodeDelta(wire, 1200);
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["wire_bytes"] =
      static_cast<double>(EncodeDelta(delta).size());
}
BENCHMARK(BM_DeltaEncodeDecode)->Arg(12)->Arg(120);

void BM_DeltaApply(benchmark::State& state) {
  BloomFilter target(1200, 4);
  BloomDelta delta;
  delta.filter_bits = 1200;
  for (int i = 0; i < 12; ++i) delta.positions.push_back(i * 97 % 1200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyDelta(delta, &target));
  }
}
BENCHMARK(BM_DeltaApply);

}  // namespace
