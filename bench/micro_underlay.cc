// Microbenchmarks for the underlay: a whole GeometricUnderlay::Build (router
// graph, connectivity patch, the all-sources router APSP, peer
// attachment) for Waxman graphs of 100 to 1000 routers and a 400-router
// Barabási–Albert graph, the O(1) RTT lookups the engine makes per message,
// and locId computation.
#include <benchmark/benchmark.h>

#include <string>

#include "common/rng.h"
#include "net/landmark.h"
#include "net/underlay.h"

namespace {

using locaware::PeerId;
using locaware::Rng;
using locaware::net::GeometricUnderlay;
using locaware::net::GeometricUnderlayConfig;
using locaware::net::RouterGraphModel;
using locaware::net::RouterGraphModelName;

void BM_BuildGeometric(benchmark::State& state, RouterGraphModel model) {
  GeometricUnderlayConfig cfg;
  cfg.model = model;
  cfg.num_routers = static_cast<size_t>(state.range(0));
  cfg.num_peers = 1000;
  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto u = GeometricUnderlay::Build(cfg, &rng);
    benchmark::DoNotOptimize(u);
  }
  state.SetLabel(std::string(RouterGraphModelName(model)) +
                 " routers=" + std::to_string(state.range(0)) + " (incl. APSP)");
}
void BM_BuildGeometric(benchmark::State& state) {
  BM_BuildGeometric(state, RouterGraphModel::kWaxman);
}
BENCHMARK(BM_BuildGeometric)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildGeometric, barabasi_albert, RouterGraphModel::kBarabasiAlbert)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_RttLookup(benchmark::State& state) {
  Rng rng(2);
  GeometricUnderlayConfig cfg;
  cfg.num_routers = 200;
  cfg.num_peers = 1000;
  auto u = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  PeerId a = 0, b = 500;
  double sink = 0;
  for (auto _ : state) {
    a = (a + 1) % 1000;
    b = (b + 7) % 1000;
    sink += u->RttMs(a, b);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RttLookup);

void BM_ComputeLocId(benchmark::State& state) {
  Rng rng(3);
  GeometricUnderlayConfig cfg;
  cfg.num_routers = 200;
  cfg.num_peers = 1000;
  cfg.num_landmarks = static_cast<size_t>(state.range(0));
  auto u = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  PeerId p = 0;
  for (auto _ : state) {
    p = (p + 1) % 1000;
    benchmark::DoNotOptimize(locaware::net::ComputeLocId(*u, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ComputeLocId)->Arg(4)->Arg(8);

}  // namespace
