// Microbenchmarks for the response index: insertion with eviction pressure
// and the keyword-containment lookups every visited node performs. All on
// the id plane — see bench/micro_intern.cc for the string-vs-id comparison.
//
// The index's per-entry lists (keywords, providers) live in SmallVectors
// with inline capacity, so steady-state churn should not touch the
// allocator at all. Every benchmark therefore reports an `allocs/op`
// counter next to its time: the small-vector win is that number pinned at
// ~0 on the hot paths (the string/vector era paid several per insert).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <new>
#include <vector>

#include "cache/response_index.h"

// --- allocation accounting ---------------------------------------------------
// Bench-binary-wide operator new/delete overrides with a thread-local
// counter. Only deltas around measured regions are reported, so the
// benchmark harness's own allocations outside the loop do not pollute the
// numbers.
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

using locaware::FileId;
using locaware::KeywordId;
using locaware::cache::EvictionPolicy;
using locaware::cache::ProviderEntry;
using locaware::cache::ResponseIndex;
using locaware::cache::ResponseIndexConfig;

struct Corpus {
  std::vector<FileId> files;
  std::vector<std::vector<KeywordId>> keywords;  // sorted ascending
};

// Mirrors the old string corpus ("alpha<i%97> beta<i%31> gamma<i>"): a hot
// shared id space, a mid-frequency space, and a unique id per file.
Corpus MakeCorpus(size_t n) {
  Corpus c;
  for (size_t i = 0; i < n; ++i) {
    c.files.push_back(static_cast<FileId>(i));
    std::vector<KeywordId> kws{static_cast<KeywordId>(i % 97),
                               static_cast<KeywordId>(100 + i % 31),
                               static_cast<KeywordId>(200 + i)};
    c.keywords.push_back(std::move(kws));
  }
  return c;
}

/// Attaches the allocations-per-iteration counter for the measured region.
void ReportAllocs(benchmark::State& state, uint64_t allocs_before) {
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - allocs_before),
      benchmark::Counter::kAvgIterations);
}

void BM_AddProviderWithEviction(benchmark::State& state) {
  const Corpus corpus = MakeCorpus(1024);
  ResponseIndexConfig cfg;
  cfg.max_filenames = 50;  // paper-sized: constant eviction pressure
  cfg.max_providers_per_file = 8;
  cfg.eviction = static_cast<EvictionPolicy>(state.range(0));
  ResponseIndex ri(cfg);
  size_t i = 0;
  locaware::sim::SimTime now = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    const size_t f = i++ & 1023;
    ri.AddProvider(corpus.files[f], corpus.keywords[f],
                   ProviderEntry{static_cast<uint32_t>(i % 1000), 0, 0}, now++);
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddProviderWithEviction)
    ->Arg(static_cast<int>(EvictionPolicy::kLru))
    ->Arg(static_cast<int>(EvictionPolicy::kFifo))
    ->Arg(static_cast<int>(EvictionPolicy::kRandom));

/// A full index of `entries` files: 50 is the paper's size, 200 the largest
/// `ri.max_filenames` measured so far. A lookup scans every entry, so the
/// 200 rows show the scan's cost where it is highest.
ResponseIndex FullIndex(size_t entries) {
  const Corpus corpus = MakeCorpus(entries);
  ResponseIndexConfig cfg;
  cfg.max_filenames = entries;
  ResponseIndex ri(cfg);
  for (size_t f = 0; f < entries; ++f) {
    ri.AddProvider(corpus.files[f], corpus.keywords[f], ProviderEntry{1, 0, 0}, 0);
  }
  return ri;
}

void BM_LookupByKeywords(benchmark::State& state, size_t entries) {
  // A full index probed with a 2-keyword query — the per-node cost a query
  // pays at every hop.
  const Corpus corpus = MakeCorpus(entries);
  ResponseIndex ri = FullIndex(entries);
  size_t i = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    const size_t f = i++ % entries;
    const KeywordId query[2] = {corpus.keywords[f][0], corpus.keywords[f][2]};
    auto hits = ri.LookupByKeywords(query, 1);
    benchmark::DoNotOptimize(hits);
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
void BM_LookupByKeywords(benchmark::State& state) { BM_LookupByKeywords(state, 50); }
BENCHMARK(BM_LookupByKeywords);
BENCHMARK_CAPTURE(BM_LookupByKeywords, 200, 200);

void BM_LookupMiss(benchmark::State& state, size_t entries) {
  ResponseIndex ri = FullIndex(entries);
  const std::vector<KeywordId> absent{90000};
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    auto hits = ri.LookupByKeywords(absent, 1);
    benchmark::DoNotOptimize(hits);
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
void BM_LookupMiss(benchmark::State& state) { BM_LookupMiss(state, 50); }
BENCHMARK(BM_LookupMiss);
BENCHMARK_CAPTURE(BM_LookupMiss, 200, 200);

void BM_ProviderRefresh(benchmark::State& state) {
  // Locaware constantly refreshes providers of hot files (§4.1.2); measure
  // the move-to-front path. Pure in-place SmallVector shuffling: 0 allocs.
  const Corpus corpus = MakeCorpus(1);
  ResponseIndexConfig cfg;
  cfg.max_providers_per_file = 8;
  ResponseIndex ri(cfg);
  locaware::sim::SimTime now = 0;
  for (uint32_t p = 0; p < 8; ++p) {
    ri.AddProvider(corpus.files[0], corpus.keywords[0], ProviderEntry{p, 0, 0},
                   now++);
  }
  uint32_t p = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    ri.AddProvider(corpus.files[0], corpus.keywords[0],
                   ProviderEntry{p++ & 7, 0, 0}, now++);
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProviderRefresh);

// One expiry sweep removing all 50 entries. BM_ExpireStaleSweep discards
// the removed files (the Dicas / Dicas-Keys path: allocs/op must read 0);
// BM_ExpireStaleSweep/reported collects them sorted, as Locaware does to
// mirror them into its counting Bloom filter.
void BM_ExpireStaleSweep(benchmark::State& state, bool report) {
  const Corpus corpus = MakeCorpus(50);
  ResponseIndexConfig cfg;
  cfg.max_filenames = 50;
  cfg.entry_ttl = 1000;
  // Only the sweep's own allocations count, not the untimed refill's.
  uint64_t refill_allocs = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    state.PauseTiming();
    const uint64_t refill_before = g_alloc_count;
    ResponseIndex ri(cfg);
    for (size_t f = 0; f < 50; ++f) {
      ri.AddProvider(corpus.files[f], corpus.keywords[f], ProviderEntry{1, 0, 0},
                     0);
    }
    refill_allocs += g_alloc_count - refill_before;
    state.ResumeTiming();
    std::vector<ResponseIndex::EvictedFile> removed;
    benchmark::DoNotOptimize(ri.ExpireStale(5000, report ? &removed : nullptr));
    benchmark::DoNotOptimize(removed);
  }
  ReportAllocs(state, allocs_before + refill_allocs);
  state.SetItemsProcessed(state.iterations());
}

void BM_ExpireStaleSweep(benchmark::State& state) { BM_ExpireStaleSweep(state, false); }
BENCHMARK(BM_ExpireStaleSweep);
BENCHMARK_CAPTURE(BM_ExpireStaleSweep, reported, true);

void BM_SteadyStateChurn(benchmark::State& state) {
  // The engine's actual per-node life: a full index absorbing inserts (with
  // eviction), provider refreshes, and containment lookups in a fixed ratio.
  // This is the lever's acceptance number — with inline provider/keyword
  // storage the mixed path settles near 0 allocs/op (the residual is
  // the Hit vector a successful lookup returns).
  const Corpus corpus = MakeCorpus(1024);
  ResponseIndexConfig cfg;
  cfg.max_filenames = 50;
  cfg.max_providers_per_file = 8;
  ResponseIndex ri(cfg);
  for (size_t f = 0; f < 50; ++f) {
    ri.AddProvider(corpus.files[f], corpus.keywords[f], ProviderEntry{1, 0, 0}, 0);
  }
  size_t i = 0;
  locaware::sim::SimTime now = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    const size_t f = i & 1023;
    // 3 parts insert/refresh churn to 1 part lookup, like a visited node
    // that caches passing responses and answers the occasional query.
    if ((i & 3) != 3) {
      ri.AddProvider(corpus.files[f], corpus.keywords[f],
                     ProviderEntry{static_cast<uint32_t>(i % 1000), 0, 0}, now++);
    } else {
      const KeywordId query[2] = {corpus.keywords[f][0], corpus.keywords[f][1]};
      auto hits = ri.LookupByKeywords(query, now);
      benchmark::DoNotOptimize(hits);
    }
    ++i;
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SteadyStateChurn);

}  // namespace
