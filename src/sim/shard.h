// Shard primitives for the parallel discrete-event engine: shard/source ids
// and the batched cross-shard event record.
//
// Sharding model (see sharded_simulator.h for the full contract): peers are
// partitioned across K shards, each with its own event queue, executed by
// W <= K workers that claim shards per window (home block first, then work
// stealing). With several workers, shards only exchange events through
// per-(src-shard, dst-shard) mailboxes flushed at the window barrier, so the
// hot path between barriers is lock-free — the claim stamps and stat counters
// are the only shared atomics. A lone worker pushes into the queue directly.
#pragma once

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace locaware::sim {

/// Index of a shard (worker) inside a ShardedSimulator.
using ShardId = uint32_t;

/// Sentinel: "not executing on any shard" (controller thread, tests).
inline constexpr ShardId kNoShard = UINT32_MAX;

/// \brief One event in flight between shards.
///
/// Cross-shard sends are appended to the sender's outbox during a window and
/// moved into the destination shard's queue at the next barrier — the
/// "batch event delivery per (src, dst) link" lever: one vector append per
/// message instead of one synchronized heap push.
struct ShardEvent {
  SimTime time = 0;
  SourceId src = 0;
  uint64_t seq = 0;
  EventFn fn;
};

}  // namespace locaware::sim
