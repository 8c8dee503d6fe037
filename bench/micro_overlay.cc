// Microbenchmarks for the overlay graph: generation, half-link churn
// operations and the connectivity sweeps the engine relies on.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "overlay/overlay_graph.h"

namespace {

using locaware::PeerId;
using locaware::Rng;
using locaware::overlay::OverlayConfig;
using locaware::overlay::OverlayGraph;

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

}  // namespace
