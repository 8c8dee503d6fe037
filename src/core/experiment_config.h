// The complete, self-describing configuration of one simulation run.
// MakePaperConfig() yields the paper's §5.1 setup for a chosen protocol.
#pragma once

#include <cstdint>
#include <string>

#include "catalog/file_catalog.h"
#include "catalog/workload.h"
#include "core/protocol_params.h"
#include "net/underlay.h"
#include "overlay/churn.h"
#include "overlay/overlay_graph.h"
#include "sim/shard_placement.h"

namespace locaware::core {

/// How the parallel scheduler decomposes and drives the run. One contract
/// covers the whole block: every knob here is wall-clock-only — any shard
/// count, worker count or placement strategy produces byte-identical metrics
/// for the same seed (the determinism contract CI enforces). Peers are
/// partitioned across `shards` simulation shards by a placement-defined
/// partition (sim::ShardPlacement, built once at Engine::Create); each shard
/// owns its peers' events and synchronizes with the others through
/// conservative windows bounded by a per-shard-pair lookahead matrix derived
/// from the underlay's locality structure. Composes with churn: lifecycle
/// transitions run as owner-shard events and overlay repair travels as
/// LinkDrop/LinkProbe/LinkAccept messages.
struct SchedulerConfig {
  /// Simulation shards (event partitions). 1 runs on the caller's thread;
  /// > 1 trades barrier overhead for multi-core wall-clock.
  uint32_t shards = 1;

  /// Worker threads driving the shards (0 = one per shard). Fewer workers
  /// than shards over-decomposes the run: a worker that finishes its own
  /// shards steals whole remaining ones (which moves the thread that runs a
  /// shard, never event order), so skewed shards are absorbed.
  uint32_t workers = 0;

  /// Peer → shard mapping strategy. kModulo is the historical p % shards;
  /// kClustered groups peers by underlay location (weighted by the
  /// workload's requester histogram) so the per-shard-pair lookahead matrix
  /// sees spatially tight shards and runs deeper windows.
  sim::PlacementStrategy placement = sim::PlacementStrategy::kModulo;
};

/// Everything RunExperiment needs. All nested sizes (peers, landmarks) are
/// normalized from the top-level fields by Engine::Create, so callers only
/// set num_peers once.
struct ExperimentConfig {
  /// Free-form run label used in reports ("Locaware", "Flooding", ...).
  std::string label;

  size_t num_peers = 1000;       ///< paper: 1000
  double avg_degree = 3.0;       ///< paper: average connectivity degree 3
  size_t files_per_peer = 3;     ///< paper: 3 initial shared files
  size_t num_landmarks = 4;      ///< paper: 4 landmarks → 24 locIds

  /// Parallel-scheduler decomposition (shards, workers, placement). See
  /// SchedulerConfig for the shared determinism contract.
  SchedulerConfig scheduler;

  /// Use the geometry-free control underlay (locality ablation) instead of
  /// the BRITE-inspired router plane.
  bool use_uniform_underlay = false;

  net::GeometricUnderlayConfig underlay;
  catalog::CatalogConfig catalog;      ///< paper: 3000 files, 9000 keywords, 3 kw/file
  catalog::WorkloadConfig workload;    ///< paper: Zipf, 0.00083 q/s/peer, TTL-7 search
  overlay::ChurnConfig churn;          ///< disabled in the paper's headline runs

  /// When non-empty, the query workload is replayed from this trace file
  /// (written by QueryWorkload::SaveTrace or SaveBinary; the format is
  /// sniffed) instead of being generated; the `workload` block is then
  /// ignored. The trace must reference peers and files that exist under the
  /// catalog/num_peers settings.
  std::string trace_path;

  ProtocolKind protocol = ProtocolKind::kLocaware;
  ProtocolParams params;

  uint64_t seed = 42;
};

/// The paper's §5.1 configuration for `kind`, with protocol-appropriate
/// parameter defaults (see MakeDefaultParams).
ExperimentConfig MakePaperConfig(ProtocolKind kind, uint64_t num_queries = 5000,
                                 uint64_t seed = 42);

}  // namespace locaware::core
