// Ablation: churn and index staleness (paper §4.1.2 / Markatos [11]).
//
// The headline experiments are churn-free; this bench turns on session churn
// and sweeps the index entry lifetime, reporting stale-download failures and
// the overlay-repair traffic the message-routed link handshake costs — the
// staleness/maintenance tradeoff the paper's freshness rule ("most recent pf
// entries replace the oldest ones", short cache lifetimes) navigates.
//
// Dynamic-network scenarios run on the parallel engine: --shards=K uses K
// worker shards, and the --json output is byte-identical for every K at a
// fixed seed (CI's second determinism gate diffs shards=1 vs shards=4).
#include <cstdio>
#include <string>
#include <vector>

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const bench::FigOptions options = bench::ParseArgs(argc, argv);
  const uint64_t queries = options.num_queries;

  std::printf("== Ablation: churn & index staleness (%llu queries) ==\n",
              static_cast<unsigned long long>(queries));
  std::printf("churn model: mean session 30 min, mean offline 10 min\n");
  bench::PrintRunLine(options);
  std::printf("%-22s %-10s %8s %13s %12s %11s %8s %11s %8s\n", "cell", "TTL",
              "success", "stale fails", "stale hits", "repair msg", "rep KB",
              "download ms", "churns");

  struct Cell {
    core::ProtocolKind kind;
    sim::SimTime ttl;
    bool churn;
    const char* ttl_label;
  };
  const Cell cells[] = {
      {core::ProtocolKind::kLocaware, 0, false, "no churn"},
      {core::ProtocolKind::kLocaware, 0, true, "none"},
      {core::ProtocolKind::kLocaware, 10 * sim::kMinute, true, "10 min"},
      {core::ProtocolKind::kLocaware, 2 * sim::kMinute, true, "2 min"},
      {core::ProtocolKind::kDicas, 0, true, "none"},
      {core::ProtocolKind::kDicas, 10 * sim::kMinute, true, "10 min"},
  };

  std::vector<core::ExperimentConfig> configs;
  for (const Cell& cell : cells) {
    core::ExperimentConfig cfg = bench::MakeConfig(cell.kind, options);
    cfg.churn.enabled = cell.churn;
    cfg.churn.mean_session_s = 1800;
    cfg.churn.mean_offline_s = 600;
    cfg.params.ri.entry_ttl = cell.ttl;
    cfg.label = std::string(core::ProtocolKindName(cell.kind)) +
                (cell.churn ? " churn ttl=" : " ") + cell.ttl_label;
    configs.push_back(std::move(cfg));
  }
  const std::vector<core::ExperimentResult> results = bench::RunAll(configs, options);

  for (size_t i = 0; i < results.size(); ++i) {
    const metrics::Summary& s = results[i].summary;
    std::printf("%-22s %-10s %7.1f%% %13llu %12llu %11llu %8.1f %11.1f %8llu\n",
                results[i].label.c_str(), cells[i].ttl_label,
                s.success_rate * 100,
                static_cast<unsigned long long>(s.stale_failures),
                static_cast<unsigned long long>(s.stale_provider_hits),
                static_cast<unsigned long long>(s.repair_msgs),
                static_cast<double>(s.repair_bytes) / 1024.0, s.avg_download_ms,
                static_cast<unsigned long long>(s.churn_events));
  }

  bench::MaybeWriteJson(results, options);

  std::printf(
      "\nreading guide: under churn an unexpired index keeps offering peers\n"
      "that already left (stale failures; 'stale hits' counts every departed\n"
      "provider the indexes served); expiring entries trades a bit of hit\n"
      "ratio for freshness, and 'repair' is the LinkDrop/LinkProbe/LinkAccept\n"
      "traffic that keeps the overlay wired. Locaware's multi-provider records\n"
      "make it more robust than Dicas' single-provider indexes at equal\n"
      "lifetimes.\n");
  return 0;
}
