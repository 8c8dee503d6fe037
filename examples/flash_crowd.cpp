// Flash crowd: a hand-built trace drives a burst of demand for one file.
//
// The paper's Fig. 2 story — download distance *improves* as queries
// accumulate, because every successful download mints a new provider — is
// easiest to see in its extreme form: hundreds of peers requesting the same
// file in a short window. This example builds that workload as a trace
// (exercising the record/replay API), runs Locaware and Flooding on it, and
// prints how the crowd's download distance collapses as replicas spread.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/experiment.h"

namespace {

using namespace locaware;

core::ExperimentConfig BaseConfig(core::ProtocolKind kind) {
  core::ExperimentConfig cfg = core::MakePaperConfig(kind, /*num_queries=*/1, 2026);
  cfg.num_peers = 400;
  cfg.underlay.num_routers = 100;
  cfg.catalog.num_files = 1200;
  cfg.catalog.keyword_pool_size = 3600;
  return cfg;
}

}  // namespace

int main() {
  // Discover the catalog (deterministic from the seed) by building one
  // engine, then write a flash-crowd trace against it: 400 queries for the
  // same file from random peers, ~2 per second.
  auto scout = std::move(core::Engine::Create(BaseConfig(core::ProtocolKind::kLocaware)))
                   .ValueOrDie();
  // Pick a file someone actually shares at t=0 — with 400x3 copies over 1200
  // files, ~1/e of files start unhosted and a crowd for one of those would
  // fail for every protocol.
  FileId hot = 0;
  bool found = false;
  for (PeerId p = 0; p < scout->num_peers() && !found; ++p) {
    for (FileId f : scout->node(p).file_store) {
      hot = f;
      found = true;
      break;
    }
  }
  const auto& kws = scout->catalog().keywords(hot);
  std::printf("flash crowd target: \"%s\" (file %u)\n",
              scout->catalog().filename(hot).c_str(), hot);

  // A fresh temporary file per run, so concurrent runs never share a trace.
  std::string trace_path =
      (std::filesystem::temp_directory_path() / "locaware_flash_crowd.XXXXXX").string();
  const int fd = mkstemp(trace_path.data());
  if (fd < 0) {
    std::perror("mkstemp");
    return 1;
  }
  close(fd);
  {
    // Traces are a string edge: ids resolve to words through the catalog.
    std::ofstream trace(trace_path);
    Rng rng(7);
    sim::SimTime t = 0;
    for (int i = 0; i < 400; ++i) {
      t += sim::FromSeconds(rng.Exponential(2.0));  // ~2 queries/s
      const PeerId requester = static_cast<PeerId>(rng.UniformInt(0, 399));
      // 1-2 keywords of the hot filename, like real keyword queries.
      trace << i << ' ' << requester << ' ' << hot << ' ' << t << ' '
            << scout->catalog().keyword(kws[0]);
      if (rng.Bernoulli(0.5)) trace << ' ' << scout->catalog().keyword(kws[1]);
      trace << '\n';
    }
  }

  std::vector<core::ExperimentConfig> configs;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kFlooding, core::ProtocolKind::kLocaware}) {
    configs.push_back(BaseConfig(kind));
    configs.back().trace_path = trace_path;
  }
  auto runs = core::RunExperiments(configs, /*num_buckets=*/8);
  std::remove(trace_path.c_str());
  for (const auto& run : runs) {
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
      return 1;
    }
  }
  const core::ExperimentResult& flooding = runs[0].ValueOrDie();
  const core::ExperimentResult& locaware = runs[1].ValueOrDie();

  std::printf("\ncrowd of 400 queries for one file, 400 peers:\n");
  std::printf("%-10s %10s %12s %14s %12s\n", "protocol", "success", "msgs/query",
              "download ms", "loc-match");
  for (const auto* r : {&flooding, &locaware}) {
    std::printf("%-10s %9.1f%% %12.1f %14.1f %11.1f%%\n", r->label.c_str(),
                r->summary.success_rate * 100, r->summary.msgs_per_query,
                r->summary.avg_download_ms, r->summary.loc_match_rate * 100);
  }

  std::printf("\ndownload distance as the crowd progresses (bucket averages):\n");
  std::printf("%10s %12s %12s\n", "queries", "Flooding", "Locaware");
  for (size_t i = 0; i < locaware.series.size(); ++i) {
    std::printf("%10llu %12.1f %12.1f\n",
                static_cast<unsigned long long>(locaware.series[i].queries_end),
                flooding.series[i].avg_download_ms,
                locaware.series[i].avg_download_ms);
  }
  std::printf(
      "\nreading guide: every satisfied requester becomes a provider, so the\n"
      "file's replica set explodes during the crowd. Locaware's indexes track\n"
      "the new replicas (with locIds) and route the next wave to nearby ones;\n"
      "Flooding finds replicas too, but picks distance-blind.\n");
  return 0;
}
