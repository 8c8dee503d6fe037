// Microbenchmarks for the event hot path: EventQueue push/pop with
// inline-storage closures.
//
// Every simulated event passes through PushKeyed -> heap sift -> Pop -> invoke.
// With std::function envelopes, any capture past ~2 pointers paid a malloc
// on push and a free on pop — at engine scale, one allocator round-trip per
// event. EventFn (common::InlineFunction) stores the capture inside the
// queue entry, so the same cycle is allocation-free apart from the heap
// vector's amortized growth (and not even that once Reserve has run).
//
// Rows:
//  * BM_EventQueuePushPop/capture_bytes:{8,64,200} — a steady-state
//    push/pop cycle at three capture sizes spanning tiny ticks to the
//    engine's biggest (a SendResponse closure, ~208 bytes). The acceptance
//    counter is allocs/event == 0 for every row: capture size no longer
//    buys heap traffic.
//  * BM_StdFunctionEnvelope/capture_bytes:{8,64,200} — the same cycle
//    through a std::function-keyed heap, kept as the reference the inline
//    rows are read against (expect ~1 alloc/event beyond the small-object
//    threshold).
//  * BM_EventQueueBurst — 4096 pushes then 4096 pops on a Reserve()d queue,
//    the storm shape the sharded mailboxes produce at window barriers.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <vector>

#include "sim/event_queue.h"

// --- allocation accounting ---------------------------------------------------
// Bench-binary-wide operator new/delete overrides with a thread-local
// counter; only deltas around measured regions are reported (same idiom as
// bench/micro_cache.cc).
namespace {
thread_local uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using locaware::sim::EventFn;
using locaware::sim::EventQueue;
using locaware::sim::SimTime;

/// Attaches the allocations-per-iteration counter for the measured region.
void ReportAllocs(benchmark::State& state, uint64_t allocs_before) {
  state.counters["allocs/event"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - allocs_before),
      benchmark::Counter::kAvgIterations);
}

/// A closure payload of exactly `Bytes` bytes, touched on invoke so the
/// capture cannot be optimized away.
template <size_t Bytes>
struct Payload {
  unsigned char bytes[Bytes];
  uint64_t* sink;
  void operator()() const { *sink += bytes[0] + bytes[Bytes - 1]; }
};

template <size_t Bytes>
void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  q.Reserve(64);
  uint64_t sink = 0;
  // A standing population of 32 events keeps the sifts realistic (depth-5
  // heap) while each iteration does one push + one pop + one invoke.
  SimTime now = 0;
  uint64_t seq = 0;
  for (int i = 0; i < 32; ++i) {
    q.PushKeyed(now + 1 + (i * 7) % 32, /*src=*/0, seq++, Payload<Bytes>{{1}, &sink});
  }
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    q.PushKeyed(now + 1 + (sink % 32), /*src=*/0, seq++, Payload<Bytes>{{1}, &sink});
    SimTime t;
    EventFn fn = q.Pop(&t);
    now = t;
    fn();
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop<8>)->Name("BM_EventQueuePushPop/capture_bytes:8");
BENCHMARK(BM_EventQueuePushPop<64>)
    ->Name("BM_EventQueuePushPop/capture_bytes:64");
BENCHMARK(BM_EventQueuePushPop<200>)
    ->Name("BM_EventQueuePushPop/capture_bytes:200");

/// The pre-lever shape: the same (time, fn) heap but with std::function
/// envelopes, so every capture past the small-object threshold is a heap
/// node. Read the inline rows against this one.
template <size_t Bytes>
void BM_StdFunctionEnvelope(benchmark::State& state) {
  struct Entry {
    SimTime time;
    std::function<void()> fn;
    bool operator>(const Entry& other) const { return time > other.time; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> q;
  uint64_t sink = 0;
  SimTime now = 0;
  for (int i = 0; i < 32; ++i) {
    q.push(Entry{now + 1 + (i * 7) % 32, Payload<Bytes>{{1}, &sink}});
  }
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    q.push(Entry{now + 1 + static_cast<SimTime>(sink % 32),
                 Payload<Bytes>{{1}, &sink}});
    Entry top = std::move(const_cast<Entry&>(q.top()));
    q.pop();
    now = top.time;
    top.fn();
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdFunctionEnvelope<8>)
    ->Name("BM_StdFunctionEnvelope/capture_bytes:8");
BENCHMARK(BM_StdFunctionEnvelope<64>)
    ->Name("BM_StdFunctionEnvelope/capture_bytes:64");
BENCHMARK(BM_StdFunctionEnvelope<200>)
    ->Name("BM_StdFunctionEnvelope/capture_bytes:200");

void BM_EventQueueBurst(benchmark::State& state) {
  constexpr int kBurst = 4096;
  uint64_t sink = 0;
  uint64_t burst_allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    EventQueue q;
    q.Reserve(kBurst);
    const uint64_t allocs_after_reserve = g_alloc_count;
    state.ResumeTiming();
    for (int i = 0; i < kBurst; ++i) {
      q.PushKeyed((i * 2654435761u) % kBurst, /*src=*/0, i, Payload<64>{{1}, &sink});
    }
    SimTime t;
    while (!q.empty()) q.Pop(&t)();
    benchmark::DoNotOptimize(sink);
    burst_allocs += g_alloc_count - allocs_after_reserve;
  }
  // Allocs per *event*, measured from after Reserve: the burst itself must
  // be allocation-free.
  state.counters["allocs/event"] = benchmark::Counter(
      static_cast<double>(burst_allocs) / static_cast<double>(kBurst),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_EventQueueBurst)->Unit(benchmark::kMicrosecond);

}  // namespace
