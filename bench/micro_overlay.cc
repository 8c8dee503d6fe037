// Microbenchmarks for the overlay graph: generation, half-link churn
// operations and the connectivity sweeps the engine relies on; and for the
// DHT overlay's per-peer routing: one routing decision (NextHop) and one
// table rebuild (ComputeTables) on a 4k-peer ring.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "dht/ring.h"
#include "dht/routing.h"
#include "overlay/overlay_graph.h"

namespace {

using locaware::PeerId;
using locaware::Rng;
using locaware::overlay::OverlayConfig;
using locaware::overlay::OverlayGraph;
namespace dht = locaware::dht;

void BM_Generate(benchmark::State& state) {
  OverlayConfig cfg;
  cfg.num_peers = static_cast<size_t>(state.range(0));
  cfg.avg_degree = 3.0;
  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto g = OverlayGraph::Generate(cfg, &rng);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Generate)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_DepartJoinCycle(benchmark::State& state) {
  // One churn cycle through the half-link ops the engine's churn path runs,
  // minus the messages: the departing peer clears its own row, each
  // ex-neighbor removes its half (LinkDrop), and the rejoined peer links 3
  // random peers, each end installing its own half (LinkProbe/LinkAccept).
  Rng rng(2);
  OverlayConfig cfg;
  cfg.num_peers = 1000;
  auto g = std::move(OverlayGraph::Generate(cfg, &rng)).ValueOrDie();
  PeerId p = 0;
  for (auto _ : state) {
    p = (p + 1) % 1000;
    const uint32_t ending_epoch = g.session_epoch(p);
    for (PeerId nb : g.GoOffline(p)) g.RemoveHalfLink(nb, p, ending_epoch);
    g.GoOnline(p);
    for (size_t linked = 0; linked < 3;) {
      const auto other = static_cast<PeerId>(rng.UniformInt(0, cfg.num_peers - 1));
      if (!g.AddHalfLink(p, other, g.session_epoch(other))) continue;
      g.AddHalfLink(other, p, g.session_epoch(p));
      ++linked;
    }
    benchmark::DoNotOptimize(g.Degree(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DepartJoinCycle);

void BM_NeighborScan(benchmark::State& state) {
  // The inner loop of every ForwardTargets implementation.
  Rng rng(3);
  OverlayConfig cfg;
  cfg.num_peers = 1000;
  auto g = std::move(OverlayGraph::Generate(cfg, &rng)).ValueOrDie();
  PeerId p = 0;
  size_t sink = 0;
  for (auto _ : state) {
    p = (p + 1) % 1000;
    for (PeerId nb : g.Neighbors(p)) sink += g.Degree(nb);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborScan);

void BM_LargestComponent(benchmark::State& state) {
  Rng rng(4);
  OverlayConfig cfg;
  cfg.num_peers = static_cast<size_t>(state.range(0));
  auto g = std::move(OverlayGraph::Generate(cfg, &rng)).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.LargestComponentFraction());
  }
}
BENCHMARK(BM_LargestComponent)->Arg(1000)->Arg(5000)->Unit(benchmark::kMicrosecond);

// The DHT rows use skew_hybrid_4k's ring shape: 4000 peers, all online,
// 4 successors and 24 fingers (the config defaults).
constexpr size_t kDhtPeers = 4000;
constexpr size_t kDhtSuccessors = 4;
constexpr size_t kDhtFingers = 24;

bool AllOnline(PeerId) { return true; }

void BM_DhtNextHop(benchmark::State& state) {
  // One hop of an iterative lookup: the routing decision every DhtLookup
  // delivery takes at the receiving peer. Peers and keys cycle through
  // run-time arrays so nothing folds to a constant.
  const dht::Ring ring = dht::Ring::Build(kDhtPeers);
  std::vector<dht::RoutingState> tables(kDhtPeers);
  for (PeerId p = 0; p < kDhtPeers; ++p) {
    dht::ComputeTables(ring, p, kDhtSuccessors, kDhtFingers, AllOnline, &tables[p]);
  }
  std::vector<dht::RingId> keys(1024);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = dht::RingIdOfKey(locaware::Mix64(i));
  size_t i = 0;
  PeerId p = 0;
  for (auto _ : state) {
    const dht::HopDecision hd = dht::NextHop(tables[p], p, keys[i]);
    benchmark::DoNotOptimize(hd);
    i = (i + 1) % keys.size();
    p = (p + 7) % kDhtPeers;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DhtNextHop);

void BM_DhtComputeTables(benchmark::State& state) {
  // One peer's successor-list and route-table rebuild, as every maintenance
  // tick runs it under churn (and set-up runs once per peer). The table is
  // reused across iterations, as a peer's RoutingState is across ticks.
  const dht::Ring ring = dht::Ring::Build(kDhtPeers);
  dht::RoutingState rt;
  PeerId p = 0;
  for (auto _ : state) {
    dht::ComputeTables(ring, p, kDhtSuccessors, kDhtFingers, AllOnline, &rt);
    benchmark::DoNotOptimize(rt.routes.data());
    benchmark::ClobberMemory();
    p = (p + 1) % kDhtPeers;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DhtComputeTables);

}  // namespace
