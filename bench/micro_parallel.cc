// Microbenchmarks for the sharded parallel engine.
//
// BM_ShardedSimulatorStorm isolates the simulator: a deterministic message
// storm over 10k sources, measuring raw events/sec against the shard count
// (barrier + mailbox overhead vs multi-core headroom). BM_EngineSharded runs
// the full Dicas protocol on a 10k-peer overlay — the acceptance workload for
// the ">= 2x wall-clock at 4 shards on a multi-core host" target. Single-core
// machines will show the barrier overhead instead; the interesting number is
// always the ratio between the /shards:1 and /shards:N rows on the same host.
//
// Two scenarios exercise the topology-aware scheduler:
//  * BM_ShardedSimulatorClusteredLocality — shards hold latency clusters
//    (cheap intra-shard traffic, 100 ms cross-shard links). The per-pair
//    lookahead matrix lets every shard run ~100 ms windows where the uniform
//    global-min bound forces ~2 ms ones: compare the `windows` counter (and
//    events/s) between the /matrix:0 and /matrix:1 rows.
//  * BM_ShardedSimulatorSkewedStorm — half the load lands on shard 0, eight
//    shards over two workers. Shard 0's home worker also owns three light
//    shards; the other worker steals those once its own block drains.
//    `idle_ns/window` and `steals/window` show how much of the skew it
//    absorbs.
//  * BM_EngineSharded/shards:8 — the same comparison end-to-end: the
//    /clustered:1 row swaps the modulo peer → shard map for the
//    locality-clustered ShardPlacement; compare `windows`, `events/s` and
//    `idle_ns/window` against /clustered:0 at equal `msgs`.
//
// Determinism note: the engine rows also serve as a cheap invariance probe —
// every shard count reports an identical `msgs` counter, because sharding
// must never change results.
//
// Million-peer data plane rows:
//  * BM_EngineScale — the full engine at 100k peers (1000-router underlay,
//    pre-reserved event queues), reporting events/s and rss_kb/peer (VmRSS
//    delta across Create+Run). Set LOCAWARE_BENCH_1M=1 to also register the
//    1,000,000-peer row (minutes of wall clock — local runs only, never CI).
//  * BM_TraceLoad — text vs binary trace parsing over the same 200k-query
//    workload; the `speedup` counter is the headline binary-format number.
//
// BM_WindowCycle/shards:{4,8}/workers:{1,K} isolates the per-window
// controller cost: one token hops shard to shard at exactly the lookahead, so
// every window holds one event and `ns/window` is the barrier crossing, the
// mailbox drain and the window-end computation, with next to no event work.
//
// BM_EngineCreate/shards:{1,4,8} times Engine::Create alone on the 10k-peer
// flooding network: the set-up cost, and whether it grows with the shards;
// BM_EngineCreate/locaware_100k/shards:4 on the 100k-peer Locaware one,
// where the per-peer set-up builders dominate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <string>

#include "catalog/file_catalog.h"
#include "catalog/workload.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "sim/sharded_simulator.h"
#include "sim/sim_time.h"

// --- allocation accounting ---------------------------------------------------
// Bench-binary-wide operator new/delete overrides (micro_cache idiom), but
// with an atomic counter: the sharded engine's worker threads allocate too,
// and the engine rows report allocs per *event* across the whole process.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// Out of line on purpose: once GCC inlines one of these into a call site, it
// sees operator new's memory reach free, or malloc's reach operator delete,
// and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace locaware;

// Resident set size in bytes from /proc/self/status, 0 where unavailable
// (non-Linux). Deltas around Create+Run give per-scenario peak growth even
// though the process-wide VmHWM accumulates across benchmarks.
uint64_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

void BM_ShardedSimulatorStorm(benchmark::State& state) {
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  constexpr uint32_t kSources = 10000;
  constexpr sim::SimTime kLook = sim::FromMs(5);
  constexpr int kRounds = 20;
  uint64_t events = 0;
  for (auto _ : state) {
    sim::ShardedSimulatorConfig cfg;
    cfg.num_shards = shards;
    cfg.lookahead_matrix.assign(static_cast<size_t>(shards) * shards, kLook);
    cfg.num_sources = kSources;
    sim::ShardedSimulator sim(cfg);
    // Each source keeps one event outstanding; reserving that up front makes
    // storm startup allocation-free (the queues never regrow mid-run).
    sim.ReserveEvents(kSources / shards + 1024);
    // Each source bounces a message to a pseudo-random partner every
    // lookahead: the worst case for window synchronization (every window
    // holds work for every shard, every hop may cross shards).
    std::function<void(uint32_t, int)> hop = [&](uint32_t src, int round) {
      if (round >= kRounds) return;
      const uint32_t dst = (src * 2654435761u + 1) % kSources;
      sim.ScheduleAt(dst % shards, src, sim.Now() + kLook,
                     [&hop, dst, round] { hop(dst, round + 1); });
    };
    for (uint32_t s = 0; s < kSources; ++s) {
      sim.ScheduleAt(s % shards, s, 0, [&hop, s] { hop(s, 0); });
    }
    sim.Run();
    events += sim.executed_count();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardedSimulatorStorm)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Locality-clustered fleet: intra-shard chatter every 1 ms, cross-shard
// links all >= 100 ms (the Locaware picture — tight groups, long inter-group
// RTTs). The /matrix:0 row bounds every pair by the 2 ms global minimum such
// a network would yield (its closest peer pair is intra-shard); the
// /matrix:1 row gives every shard pair its true 100 ms bound. Identical event
// streams — only the window schedule changes.
void BM_ShardedSimulatorClusteredLocality(benchmark::State& state) {
  const bool use_matrix = state.range(0) != 0;
  constexpr uint32_t kShards = 4;
  constexpr uint32_t kSourcesPerShard = 64;
  constexpr sim::SimTime kIntraStep = sim::FromMs(1);
  constexpr sim::SimTime kCrossRtt = sim::FromMs(100);
  constexpr sim::SimTime kGlobalMinLook = sim::FromMs(2);
  constexpr int kRounds = 400;
  uint64_t events = 0;
  uint64_t windows = 0;
  for (auto _ : state) {
    sim::ShardedSimulatorConfig cfg;
    cfg.num_shards = kShards;
    cfg.lookahead_matrix.assign(kShards * kShards,
                                use_matrix ? kCrossRtt : kGlobalMinLook);
    cfg.num_sources = kShards * kSourcesPerShard;
    sim::ShardedSimulator sim(cfg);
    // Up to two outstanding events per source (tick chain + cross ping).
    sim.ReserveEvents(2 * kSourcesPerShard + 1024);
    // Every source ticks a local chain each ms and pings the next cluster
    // once every 50 rounds, at the cross-link latency.
    std::function<void(uint32_t, int)> tick = [&](uint32_t src, int round) {
      if (round >= kRounds) return;
      const uint32_t shard = src % kShards;
      sim.ScheduleAt(shard, src, sim.Now() + kIntraStep,
                     [&tick, src, round] { tick(src, round + 1); });
      if (round % 50 == 49) {
        const uint32_t peer = (src + 1) % (kShards * kSourcesPerShard);
        sim.ScheduleAt(peer % kShards, src, sim.Now() + kCrossRtt, [] {});
      }
    };
    for (uint32_t s = 0; s < kShards * kSourcesPerShard; ++s) {
      sim.ScheduleAt(s % kShards, s, 0, [&tick, s] { tick(s, 0); });
    }
    sim.Run();
    events += sim.executed_count();
    windows += sim.stats().windows;
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["windows"] = benchmark::Counter(
      static_cast<double>(windows), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ShardedSimulatorClusteredLocality)
    ->ArgName("matrix")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Skewed fleet: 8 shards, 2 workers, half the sources hash to shard 0.
// Worker 0's home block holds the hot shard plus three light ones; worker 1
// takes the light shards over once its own block drains. Event order — and
// therefore every simulation result — is what one worker would produce; only
// `idle_ns/window` and `steals/window` depend on the thread schedule.
void BM_ShardedSimulatorSkewedStorm(benchmark::State& state) {
  constexpr uint32_t kShards = 8;
  constexpr uint32_t kWorkers = 2;
  constexpr uint32_t kSources = 4096;
  constexpr sim::SimTime kLook = sim::FromMs(5);
  constexpr int kRounds = 30;
  const auto shard_of = [](uint32_t src) -> uint32_t {
    return (src % 16 < 8) ? 0 : (src % (kShards - 1)) + 1;
  };
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t steals = 0;
  uint64_t idle_ns = 0;
  for (auto _ : state) {
    sim::ShardedSimulatorConfig cfg;
    cfg.num_shards = kShards;
    cfg.num_workers = kWorkers;
    cfg.lookahead_matrix.assign(kShards * kShards, kLook);
    cfg.num_sources = kSources;
    sim::ShardedSimulator sim(cfg);
    // Half the sources hash to shard 0, so size every queue for the hot one.
    sim.ReserveEvents(kSources / 2 + 1024);
    std::function<void(uint32_t, int)> hop = [&](uint32_t src, int round) {
      if (round >= kRounds) return;
      const uint32_t dst = (src * 2654435761u + 1) % kSources;
      sim.ScheduleAt(shard_of(dst), src, sim.Now() + kLook,
                     [&hop, dst, round] { hop(dst, round + 1); });
    };
    for (uint32_t s = 0; s < kSources; ++s) {
      sim.ScheduleAt(shard_of(s), s, 0, [&hop, s] { hop(s, 0); });
    }
    sim.Run();
    events += sim.executed_count();
    const sim::SchedulerStats stats = sim.stats();
    windows += stats.windows;
    steals += stats.steals;
    idle_ns += stats.idle_ns;
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["steals/window"] =
      windows == 0 ? 0.0 : static_cast<double>(steals) / static_cast<double>(windows);
  state.counters["idle_ns/window"] =
      windows == 0 ? 0.0
                   : static_cast<double>(idle_ns) / static_cast<double>(windows);
}
BENCHMARK(BM_ShardedSimulatorSkewedStorm)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One token, one event per window: each hop lands on the next shard exactly
// one lookahead later, which is exactly where that shard's next window ends.
// Run() is timed alone (thread start-up included, amortized over the rounds);
// `ns/window` is the wall clock per window.
void BM_WindowCycle(benchmark::State& state) {
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  const uint32_t workers = static_cast<uint32_t>(state.range(1));
  constexpr sim::SimTime kLook = sim::FromMs(5);
  constexpr int kRounds = 4000;
  double run_ns = 0;
  uint64_t windows = 0;
  for (auto _ : state) {
    sim::ShardedSimulatorConfig cfg;
    cfg.num_shards = shards;
    cfg.num_workers = workers;
    cfg.lookahead_matrix.assign(static_cast<size_t>(shards) * shards, kLook);
    cfg.num_sources = shards;
    sim::ShardedSimulator sim(cfg);
    std::function<void(uint32_t, int)> hop = [&](uint32_t s, int round) {
      if (round >= kRounds) return;
      const uint32_t next = (s + 1) % shards;
      sim.ScheduleAt(next, s, sim.Now() + kLook,
                     [&hop, next, round] { hop(next, round + 1); });
    };
    sim.ScheduleAt(0, 0, 0, [&hop] { hop(0, 0); });
    const auto start = std::chrono::steady_clock::now();
    sim.Run();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    run_ns += std::chrono::duration<double, std::nano>(elapsed).count();
    windows += sim.stats().windows;
  }
  state.counters["ns/window"] =
      windows == 0 ? 0.0 : run_ns / static_cast<double>(windows);
  state.counters["windows"] = benchmark::Counter(static_cast<double>(windows),
                                                 benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WindowCycle)
    ->ArgNames({"shards", "workers"})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({8, 1})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The /clustered:1 rows swap the peer → shard map from the modulo partition
// to the locality-clustered placement over the same geometric underlay — the
// real shard_of, no synthetic trace remap. Modulo spreads all 400 routers
// across every shard, collapsing the lookahead matrix to the scalar floor;
// clustering hands each shard a spatially tight router set, so the acceptance
// comparison is the shards:8 pair: clustered must run strictly fewer windows
// and more events/s than modulo while reporting the identical `msgs`.
void BM_EngineSharded(benchmark::State& state) {
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  const bool clustered = state.range(1) != 0;
  core::ExperimentConfig cfg =
      core::MakePaperConfig(core::ProtocolKind::kDicas, /*num_queries=*/1500,
                            /*seed=*/42);
  cfg.num_peers = 10000;
  cfg.underlay.num_routers = 400;
  cfg.catalog.num_files = 10000;
  cfg.catalog.keyword_pool_size = 30000;
  // A heavy concurrent load: ~200 q/s across the swarm keeps every
  // conservative window dense with work, which is what multi-core shards can
  // actually cash in on (sparse windows degenerate to barrier overhead).
  cfg.workload.query_rate_per_peer_s = 0.02;
  cfg.scheduler.shards = shards;
  cfg.scheduler.placement = clustered ? sim::PlacementStrategy::kClustered
                                      : sim::PlacementStrategy::kModulo;
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t windows = 0;
  uint64_t steals = 0;
  uint64_t idle_ns = 0;
  uint64_t run_allocs = 0;
  for (auto _ : state) {
    auto engine = std::move(core::Engine::Create(cfg)).ValueOrDie();
    const uint64_t allocs_before = g_alloc_count.load();
    engine->Run();
    run_allocs += g_alloc_count.load() - allocs_before;
    msgs = 0;
    for (const auto& r : engine->metrics().records()) msgs += r.TotalSearchMessages();
    benchmark::DoNotOptimize(msgs);
    events += engine->simulator().executed_count();
    windows = engine->metrics().scheduler_windows();
    steals = engine->metrics().scheduler_steals();
    idle_ns += engine->metrics().scheduler_idle_ns();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  // Heap traffic on the event hot path (the inline-closure + SmallVector
  // payload lever's acceptance number at engine scale): allocations during
  // Run() per executed event, steady-state bookkeeping included.
  state.counters["allocs/event"] =
      events == 0 ? 0.0
                  : static_cast<double>(run_allocs) / static_cast<double>(events);
  // Identical for every shard count and placement — the determinism contract
  // in one number.
  state.counters["msgs"] = static_cast<double>(msgs);
  // Window count is deterministic per (shard count, placement) — a pure
  // function of the event schedule and the lookahead matrix; steals and idle
  // are timing-dependent like the wall clock — read them as shape, not as a
  // stable trajectory.
  state.counters["windows"] = static_cast<double>(windows);
  state.counters["steals"] = static_cast<double>(steals);
  const uint64_t total_windows =
      windows * std::max<uint64_t>(1, state.iterations());
  state.counters["idle_ns/window"] =
      windows == 0 ? 0.0
                   : static_cast<double>(idle_ns) /
                         static_cast<double>(total_windows);
}
BENCHMARK(BM_EngineSharded)
    ->ArgNames({"shards", "clustered"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Engine::Create alone, in ms of CPU per Create, on two e2e benchmark
// networks. BM_EngineCreate/shards:{1,4,8} builds fig3_flooding_10k's (10k
// peers, 400 routers, flooding, 150 queries): the router all-pairs shortest
// paths are about 6-8 ms of a 12-18 ms Create, the per-peer builders (locIds,
// file placement, overlay, node state) most of the rest. The K x K lookahead
// matrix is the part that could grow with K, and the shards rows show
// whether it does. BM_EngineCreate/locaware_100k/shards:4 builds
// fig3_locaware_100k's (100k Locaware peers, 400 routers, 400 queries),
// where the per-peer builders and node state are nearly all of the set-up.
void BM_EngineCreate(benchmark::State& state, core::ProtocolKind kind, size_t peers,
                     uint64_t queries) {
  core::ExperimentConfig cfg = core::MakePaperConfig(kind, queries, /*seed=*/42);
  cfg.num_peers = peers;
  cfg.underlay.num_routers = 400;
  cfg.scheduler.shards = static_cast<uint32_t>(state.range(0));
  cfg.scheduler.workers = 1;
  for (auto _ : state) {
    auto engine = std::move(core::Engine::Create(cfg)).ValueOrDie();
    state.PauseTiming();
    engine.reset();
    state.ResumeTiming();
  }
}

void BM_EngineCreate(benchmark::State& state) {
  BM_EngineCreate(state, core::ProtocolKind::kFlooding, 10000, 150);
}
BENCHMARK(BM_EngineCreate)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_EngineCreate, locaware_100k, core::ProtocolKind::kLocaware, 100000,
                  400)
    ->ArgName("shards")
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The million-peer data plane target: full Dicas engine at scale. Routers
// grow with the swarm (~1 per 25 peers) up to the 1000 cap that bounds the
// all-pairs underlay precompute; catalog and query volume scale linearly so
// per-peer load matches the 10k scenario. Counters:
//  * events/s  — end-to-end simulator throughput, the headline number.
//  * rss_kb/peer — VmRSS growth across Create+Run divided by peers (max
//    over iterations: the first iteration faults the pages, later ones reuse
//    the allocator's retained heap, so max == per-scenario peak).
//  * msgs — determinism probe, identical for any shard/worker split.
void BM_EngineScale(benchmark::State& state) {
  const size_t peers = static_cast<size_t>(state.range(0));
  core::ExperimentConfig cfg =
      core::MakePaperConfig(core::ProtocolKind::kDicas,
                            /*num_queries=*/peers / 20, /*seed=*/42);
  cfg.num_peers = peers;
  cfg.underlay.num_routers = std::min<size_t>(1000, peers / 25);
  cfg.catalog.num_files = peers;
  // The syllable word space caps the pool at 1M; 100k keeps the paper's 3x
  // files ratio, 1M runs at 1 keyword per file's worth of pool instead.
  cfg.catalog.keyword_pool_size = std::min<size_t>(1000000, 3 * peers);
  cfg.workload.query_rate_per_peer_s = 0.02;
  cfg.scheduler.shards = 8;
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t rss_delta = 0;
  uint64_t run_allocs = 0;
  for (auto _ : state) {
    const uint64_t rss_before = CurrentRssBytes();
    auto engine = std::move(core::Engine::Create(cfg)).ValueOrDie();
    const uint64_t allocs_before = g_alloc_count.load();
    engine->Run();
    run_allocs += g_alloc_count.load() - allocs_before;
    const uint64_t rss_after = CurrentRssBytes();
    if (rss_after > rss_before) {
      rss_delta = std::max(rss_delta, rss_after - rss_before);
    }
    events += engine->simulator().executed_count();
    msgs = 0;
    for (const auto& r : engine->metrics().records()) msgs += r.TotalSearchMessages();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["allocs/event"] =
      events == 0 ? 0.0
                  : static_cast<double>(run_allocs) / static_cast<double>(events);
  state.counters["rss_kb/peer"] =
      static_cast<double>(rss_delta) / 1024.0 / static_cast<double>(peers);
  state.counters["msgs"] = static_cast<double>(msgs);
}
BENCHMARK(BM_EngineScale)
    ->ArgName("peers")
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The 1M-peer row takes minutes and several GB; register it only when asked.
// (The installed benchmark library has no in-run skip-with-message that keeps
// JSON artifacts clean, so gating registration beats skipping inside.)
[[maybe_unused]] const bool kRegistered1M = [] {
  if (std::getenv("LOCAWARE_BENCH_1M") == nullptr) return false;
  benchmark::RegisterBenchmark("BM_EngineScale", BM_EngineScale)
      ->ArgName("peers")
      ->Arg(1000000)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime()
      ->Iterations(1);
  return true;
}();

// Text vs binary trace parsing over one 200k-query workload. Each iteration
// loads both files into fresh scratch catalogs (every keyword interned from
// scratch — the worst case for both formats); `speedup` is the per-iteration
// text/binary wall-clock ratio the ISSUE's >= 5x acceptance bar reads.
void BM_TraceLoad(benchmark::State& state) {
  const std::string text_path = "/tmp/locaware_bench_trace.trace";
  const std::string bin_path = "/tmp/locaware_bench_trace.bin";
  {
    catalog::CatalogConfig ccfg;
    ccfg.num_files = 30000;
    ccfg.keyword_pool_size = 90000;
    Rng catalog_rng(42);
    auto catalog = catalog::FileCatalog::Generate(ccfg, &catalog_rng).ValueOrDie();
    catalog::WorkloadConfig wcfg;
    wcfg.num_queries = 200000;
    Rng workload_rng(43);
    auto workload =
        catalog::QueryWorkload::Generate(wcfg, catalog, /*num_peers=*/100000,
                                         &workload_rng)
            .ValueOrDie();
    if (!workload.SaveTrace(text_path, catalog).ok() ||
        !workload.SaveBinary(bin_path, catalog).ok()) {
      std::fprintf(stderr, "BM_TraceLoad: cannot write /tmp fixtures\n");
      std::exit(1);
    }
  }
  using Clock = std::chrono::steady_clock;
  double text_ns = 0;
  double binary_ns = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    catalog::FileCatalog text_scratch;
    const auto t0 = Clock::now();
    auto from_text = catalog::QueryWorkload::LoadAuto(text_path, &text_scratch);
    const auto t1 = Clock::now();
    catalog::FileCatalog bin_scratch;
    auto from_bin = catalog::QueryWorkload::LoadAuto(bin_path, &bin_scratch);
    const auto t2 = Clock::now();
    if (!from_text.ok() || !from_bin.ok()) {
      std::fprintf(stderr, "BM_TraceLoad: load failed\n");
      std::exit(1);
    }
    queries = from_bin.ValueOrDie().queries().size();
    text_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    binary_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["text_load_ms"] = text_ns / 1e6 / iters;
  state.counters["binary_load_ms"] = binary_ns / 1e6 / iters;
  state.counters["speedup"] = binary_ns == 0 ? 0.0 : text_ns / binary_ns;
  state.counters["queries"] = static_cast<double>(queries);
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}
BENCHMARK(BM_TraceLoad)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
