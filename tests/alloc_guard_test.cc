// Allocation-regression guard for the event hot path (tier-1, own binary:
// the global operator-new override below must not leak into the main test
// suite).
//
// The zero-allocation-event-path lever (inline-storage event closures +
// SmallVector message payloads) is held in place by one number: heap
// allocations per executed event over a fixed, seeded workload. The guard
// runs the paper engine end to end, counts every operator-new between
// Engine::Run's first and last event, and fails when the ratio crosses a
// pinned bar.
//
// The bar is NOT zero: response construction and cache-evict reporting still
// return std::vectors, and flat-table growth allocates until the tables
// plateau. What the bars exclude is everything the levers removed — a malloc
// per scheduled event (std::function spill, PR 7), per short message list
// (std::vector payloads, PR 7), per hash-map node insert (flat tables) and
// per forward hop (the query travels by value in its event instead of in a
// make_shared payload). Before the
// levers this workload measured ~5.6 allocs/event, then ~2.0 with node-based
// maps and shared_ptr payloads; a capture past kEventInlineBytes now fails
// to compile, so what the bars actually police is container/payload
// regressions — one new per-event heap allocation adds 1.0 allocs/event,
// several times either bar.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/experiment.h"

// --- allocation accounting ---------------------------------------------------
// Binary-wide operator new/delete overrides. The counter is atomic (not
// thread_local): the guard also runs a sharded configuration whose worker
// threads allocate, and missing those would undercount.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace locaware::core {
namespace {

/// The engine-test TinyConfig: 150 peers, 300 files, 200 queries — small
/// enough for a CI-cheap Debug/ASan run, large enough that the steady state
/// (forwarding, caching, responses) dominates setup by orders of magnitude.
ExperimentConfig GuardConfig(ProtocolKind kind, uint32_t shards) {
  ExperimentConfig cfg = MakePaperConfig(kind, /*num_queries=*/200, /*seed=*/7);
  cfg.num_peers = 150;
  cfg.underlay.num_routers = 40;
  cfg.catalog.num_files = 300;
  cfg.catalog.keyword_pool_size = 900;
  cfg.workload.query_rate_per_peer_s = 0.01;
  cfg.scheduler.shards = shards;
  return cfg;
}

/// Allocations per executed event across Engine::Run on `cfg`.
double AllocsPerEvent(const ExperimentConfig& cfg) {
  auto engine = std::move(Engine::Create(cfg)).ValueOrDie();
  const uint64_t allocs_before = g_alloc_count.load();
  engine->Run();
  const uint64_t allocs = g_alloc_count.load() - allocs_before;
  const uint64_t events = engine->simulator().executed_count();
  EXPECT_GT(events, 5000u) << "workload too small to be a meaningful guard";
  return static_cast<double>(allocs) / static_cast<double>(events);
}

// The pinned bars. Measured on this workload with every spill buffer and
// flat table on the global heap: Dicas 0.130 (0.188 at 4 shards), Locaware
// 0.274, Flooding 0.036 / 0.071 (1 / 4 shards) allocs/event — down from
// Dicas 0.148 / Locaware 0.293 while the response index kept a posting
// table and a list node per cached file, from 1.97 / 2.15 / 1.90 with
// node-based hash maps and make_shared forward payloads, and from Dicas
// 0.150 / Locaware 0.295 while every relay hop copied the response it
// forwarded. Hybrid measures 0.091 / 0.095 (1 / 4 shards; 0.101 / 0.103
// while every DHT reply was copied out of its event); DHT messages are
// about 80% of its ~14.4k events, so one new allocation per DHT hop would
// add about 0.8. What remains is table and array growth to plateau (a flat
// table or index array that doubles, a spilled list that outgrows its
// buffer), response and evict-report vectors, and Locaware's Bloom
// filters, which allocate their storage on first write instead of at
// Engine::Create (a one-off per filter, not per event). The numbers are
// run-to-run deterministic (the workload is seeded and the counter
// process-wide), so the headroom (at least 0.15) is for allocator/library
// drift across toolchains; a single new per-event allocation overshoots
// any bar by 2x or more.
constexpr double kDicasBar = 0.4;
constexpr double kLocawareBar = 0.45;
constexpr double kHybridBar = 0.25;

TEST(AllocGuardTest, DicasSteadyStateStaysUnderBar) {
  const double per_event = AllocsPerEvent(GuardConfig(ProtocolKind::kDicas, 1));
  RecordProperty("allocs_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, kDicasBar)
      << "event hot path regressed: " << per_event
      << " allocs/event (bar " << kDicasBar
      << ") — a new per-event heap allocation slipped in";
}

TEST(AllocGuardTest, LocawareSteadyStateStaysUnderBar) {
  // Locaware adds Bloom maintenance traffic (delta construction, filter
  // copies on OnNeighborUp) — the heaviest per-event protocol.
  const double per_event =
      AllocsPerEvent(GuardConfig(ProtocolKind::kLocaware, 1));
  RecordProperty("allocs_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, kLocawareBar)
      << "event hot path regressed: " << per_event
      << " allocs/event (bar " << kLocawareBar << ")";
}

TEST(AllocGuardTest, FloodingSteadyStateStaysUnderBar) {
  // Flooding reaches the most peers per query, so its per-query visit
  // tables grow largest and are freed once per query; that life cycle is
  // held to the same bar as the other protocols' hot paths.
  for (uint32_t shards : {1u, 4u}) {
    const double per_event =
        AllocsPerEvent(GuardConfig(ProtocolKind::kFlooding, shards));
    RecordProperty("allocs_per_event_" + std::to_string(shards) + "shard",
                   std::to_string(per_event));
    EXPECT_LE(per_event, kDicasBar)
        << "flooding event path regressed at " << shards << " shards: " << per_event
        << " allocs/event (bar " << kDicasBar << ")";
  }
}

TEST(AllocGuardTest, HybridDhtPlaneStaysUnderBar) {
  // Hybrid runs the Locaware plane plus the DHT message plane, whose
  // lookup, reply and store messages are most of its events. Each hop takes
  // a routing decision over an inline route table and moves its message
  // into the next event, so the DHT lowers the rate below Locaware's own.
  for (uint32_t shards : {1u, 4u}) {
    const double per_event =
        AllocsPerEvent(GuardConfig(ProtocolKind::kHybrid, shards));
    RecordProperty("allocs_per_event_" + std::to_string(shards) + "shard",
                   std::to_string(per_event));
    EXPECT_LE(per_event, kHybridBar)
        << "hybrid event path regressed at " << shards << " shards: " << per_event
        << " allocs/event (bar " << kHybridBar << ")";
  }
}

TEST(AllocGuardTest, ShardedRunStaysUnderBar) {
  // The sharded scheduler's cross-shard mailboxes move events by relocation;
  // its steady state must meet the same bar (worker threads included — the
  // counter is process-wide).
  const double per_event = AllocsPerEvent(GuardConfig(ProtocolKind::kDicas, 4));
  RecordProperty("allocs_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, kDicasBar)
      << "sharded event path regressed: " << per_event << " allocs/event (bar "
      << kDicasBar << ")";
}

/// Heap allocations made by Engine::Create on `cfg`.
uint64_t CreateAllocs(const ExperimentConfig& cfg) {
  const uint64_t allocs_before = g_alloc_count.load();
  auto engine = std::move(Engine::Create(cfg)).ValueOrDie();
  return g_alloc_count.load() - allocs_before;
}

TEST(AllocGuardTest, IdleBloomFiltersAllocateNothing) {
  // Locaware's set-up differs from Dicas's only by the Bloom state: a
  // counting filter and an advertised filter per peer. Empty filters hold no
  // storage, and set-up stores no neighbor copies (they would all be empty),
  // so the difference is exactly the two filter objects per peer (measured:
  // 300 over 150 peers at 1 and 4 shards). Zero-filling counters and words
  // at set-up would cost about 8 allocations per peer.
  for (uint32_t shards : {1u, 4u}) {
    const ExperimentConfig locaware = GuardConfig(ProtocolKind::kLocaware, shards);
    const ExperimentConfig dicas = GuardConfig(ProtocolKind::kDicas, shards);
    const uint64_t locaware_allocs = CreateAllocs(locaware);
    const uint64_t dicas_allocs = CreateAllocs(dicas);
    ASSERT_GE(locaware_allocs, dicas_allocs);
    const uint64_t extra = locaware_allocs - dicas_allocs;
    RecordProperty("bloom_create_allocs_" + std::to_string(shards) + "shard",
                   std::to_string(extra));
    EXPECT_LE(extra, 2 * locaware.num_peers)
        << "idle Bloom filters allocate again at " << shards
        << " shards: Locaware's Engine::Create makes " << extra
        << " more allocations than Dicas's over " << locaware.num_peers << " peers";
  }
}

}  // namespace
}  // namespace locaware::core
