// Microbenchmarks for common/flat_map.h: the open-addressing tables the data
// plane runs on (ShardState pending queries and per-query tracks with their
// visit tables, ResponseIndex entries, NodeState neighbor maps, catalog
// interning) head-to-head against the std::unordered_map they replaced.
//
// What the flat tables buy and these benchmarks pin down: one allocation per
// table instead of one per element (the `allocs/op` counter on the insert
// benchmarks), and probe sequences over contiguous slots instead of pointer
// chases through heap nodes (the hit/miss lookup times). Sizes are
// workload-shaped: 64 ~ a node's neighbor maps and a shard's in-flight
// queries, 4096 ~ the interning tables of a paper-sized catalog.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"

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

using locaware::FlatMap;

/// Workload-shaped keys: multiplicative spread over a dense id range, the
/// shape QueryId/PeerId/FileId keys take in the engine.
std::vector<uint64_t> MakeKeys(size_t n) {
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(i * 2654435761u % (n * 8));
  return keys;
}

void ReportAllocs(benchmark::State& state, uint64_t allocs_before) {
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - allocs_before),
      benchmark::Counter::kAvgIterations);
}

template <typename Map>
void FillInsertErase(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> keys = MakeKeys(n);
  Map map;
  size_t i = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    // Steady-state churn at plateau size: the life cycle of a shard's
    // pending and track tables — insert a fresh query, clean up (erase)
    // the oldest.
    map.try_emplace(keys[i % n] + i, i);
    if (map.size() > n) map.erase(keys[(i - n) % n] + (i - n));
    ++i;
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}

void BM_FlatMapInsertEraseChurn(benchmark::State& state) {
  FillInsertErase<FlatMap<uint64_t, uint64_t>>(state);
}
BENCHMARK(BM_FlatMapInsertEraseChurn)->Arg(64)->Arg(4096);

void BM_StdUnorderedInsertEraseChurn(benchmark::State& state) {
  FillInsertErase<std::unordered_map<uint64_t, uint64_t>>(state);
}
BENCHMARK(BM_StdUnorderedInsertEraseChurn)->Arg(64)->Arg(4096);

template <typename Map>
void LookupHit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> keys = MakeKeys(n);
  Map map;
  for (size_t i = 0; i < n; ++i) map.try_emplace(keys[i], i);
  size_t i = 0;
  for (auto _ : state) {
    auto it = map.find(keys[i++ % n]);
    benchmark::DoNotOptimize(it);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FlatMapLookupHit(benchmark::State& state) {
  LookupHit<FlatMap<uint64_t, uint64_t>>(state);
}
BENCHMARK(BM_FlatMapLookupHit)->Arg(64)->Arg(4096);

void BM_StdUnorderedLookupHit(benchmark::State& state) {
  LookupHit<std::unordered_map<uint64_t, uint64_t>>(state);
}
BENCHMARK(BM_StdUnorderedLookupHit)->Arg(64)->Arg(4096);

template <typename Map>
void LookupMiss(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> keys = MakeKeys(n);
  Map map;
  for (size_t i = 0; i < n; ++i) map.try_emplace(keys[i], i);
  uint64_t probe = 1;  // odd stride over a disjoint key range
  for (auto _ : state) {
    auto it = map.find((probe += 2) + (n * 16));
    benchmark::DoNotOptimize(it);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FlatMapLookupMiss(benchmark::State& state) {
  LookupMiss<FlatMap<uint64_t, uint64_t>>(state);
}
BENCHMARK(BM_FlatMapLookupMiss)->Arg(64)->Arg(4096);

void BM_StdUnorderedLookupMiss(benchmark::State& state) {
  LookupMiss<std::unordered_map<uint64_t, uint64_t>>(state);
}
BENCHMARK(BM_StdUnorderedLookupMiss)->Arg(64)->Arg(4096);

void BM_FlatMapStringHeterogeneousHit(benchmark::State& state) {
  // The catalog's interning shape: string_view keys into stable storage,
  // probed with whatever string the caller holds — no temporary
  // std::string materializes on lookup.
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> words;
  words.reserve(n);
  for (size_t i = 0; i < n; ++i) words.push_back("keyword" + std::to_string(i));
  FlatMap<std::string_view, uint64_t> map;
  map.reserve(n);
  for (size_t i = 0; i < n; ++i) map.try_emplace(words[i], i);
  size_t i = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    auto it = map.find(words[i++ % n]);
    benchmark::DoNotOptimize(it);
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapStringHeterogeneousHit)->Arg(4096);

void BM_FlatMapReservedFill(benchmark::State& state) {
  // Reserve-then-fill, the catalog-load path: one buffer allocation total,
  // however many elements follow.
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> keys = MakeKeys(n);
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    FlatMap<uint64_t, uint64_t> map;
    map.reserve(n);
    for (size_t i = 0; i < n; ++i) map.try_emplace(keys[i], i);
    benchmark::DoNotOptimize(map);
  }
  state.counters["allocs/fill"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - allocs_before),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatMapReservedFill)->Arg(4096);

}  // namespace
