// Sharded parallel discrete-event engine — the PeerSim substitute. The paper
// evaluates Locaware on PeerSim's event-driven framework, which models
// per-link latencies but neither bandwidth nor CPU (paper §5.1); this engine
// reproduces that model over K event queues.
//
// Peers (event destinations) are partitioned across K shards; a pool of W
// worker threads (W <= K, default W = K) executes them under a
// topology-aware conservative scheduler:
//
//  * Per-shard-pair lookahead. Instead of one scalar bound ("no cross-shard
//    event arrives sooner than the global minimum link latency"), the
//    scheduler takes a K x K matrix LA where LA[s][d] lower-bounds the delay
//    of any event shard s creates for shard d, and closes it once: reach[e][d]
//    is the shortest path e -> d over LA with at least one edge. Each window,
//    over the per-shard next-event times T_e, every shard d gets its own end
//
//        end[d] = min over shards e with work of (T_e + reach[e][d])
//
//    (the relay is load-bearing: an empty shard still passes causality on at
//    its incoming-edge horizons). Shards whose incoming edges are all
//    long-latency run deep windows while nearby shards stay tightly coupled.
//    With one shard nothing bounds the window, so a single window runs to the
//    horizon on the caller's thread.
//
//  * Deterministic intra-window work stealing. Within a window each shard's
//    runnable prefix (its events strictly before end[d]) is one sequential
//    task; workers claim tasks atomically, own-shard-block first, then steal
//    whole remaining shard sub-queues. A stolen shard's events still execute
//    one at a time in (time, source, seq) order against that shard's own
//    state — stealing moves *which thread* runs a shard, never the order or
//    the ownership — so results are byte-identical for every worker count.
//    Over-decomposition (K > W) is what gives the thief something to take:
//    a skewed shard keeps one worker busy while the others drain the rest.
//
// How much the matrix beats the scalar bound is decided upstream, by the
// peer → shard map (sim::ShardPlacement, built once at Engine::Create). The
// historical modulo partition spreads every underlay location across every
// shard, so each LA[s][d] mins over near-identical location sets and the
// matrix collapses toward the scalar floor; the locality-clustered placement
// gives each shard a spatially tight location set, which is what makes the
// off-diagonal bounds — and the window depths they permit — actually large.
// Either way the placement is a wall-clock knob only: results are identical
// for every placement strategy (see the determinism contract below).
//
// Window cycle: one std::barrier crossing per window. Its completion step,
// run once on the last arrival, closes the window that just ran, drains every
// non-empty per-(src-shard, dst-shard) mailbox into its destination queue,
// republishes each T_s and opens the next window. Anything edge (s, d) carries
// was created at or after T_s and so lands at or after end[d]: no drained event
// can predate the windowed execution that just finished. A lone worker (W = 1)
// has no other thread to hand off to: it pushes a cross-shard send straight
// into the destination queue, under the same `at >= end[dst]` CHECK.
//
// Events are *inline values* (see sim/event_queue.h): an EventFn stores its
// capture inside the entry — move-only, nothrow-movable, no heap fallback —
// so a mailbox append and a barrier drain are plain relocations that never
// touch the allocator (ScheduleAt takes the closure by rvalue reference, so a
// direct push relocates it once, into its slab slot), and a capture that
// outgrows kEventInlineBytes is a compile error at the ScheduleAt site rather
// than a silent per-event malloc. Closures crossing shards therefore carry
// their payload by value (trim ids, or raise the budget deliberately): the
// relocation through the mailbox is also what makes the handoff thread-safe,
// since the capture is owned by exactly one shard's storage at every moment.
//
// Periodic per-peer ticks take a cheaper path, ScheduleTick: they wait in
// their shard queue's in-order tick lane (see EventQueue) as 16-byte TickFn
// closures instead of heap entries with kEventInlineBytes slab slots. A tick
// is keyed exactly like a ScheduleAt event (same per-source sequence
// counter), and the queue merges the lane with its heap by key, so moving an
// event onto the lane never changes when it fires. Ticks stay on their own
// shard: one scheduled during execution must target the executing shard.
//
// Determinism contract (the reason the shard count never changes results):
// every event carries a (time, source, per-source sequence) key assigned at
// creation, where `source` is the *logical* creator (a peer, not a thread or
// shard). Queues pop in key order, and the conservative windows guarantee a
// cross-shard event is enqueued before any event with a larger key executes
// at its destination.
// Per-destination execution order is therefore a pure function of the
// simulation — identical for every shard count, worker count and lookahead
// bound, including 1 shard. Callers must keep event handlers shard-local
// (mutate only state owned by the destination's shard) and derive any
// randomness from stable identities rather than shared sequential streams.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/shard.h"
#include "sim/sim_time.h"

namespace locaware::sim {

/// Construction parameters for the sharded engine.
struct ShardedSimulatorConfig {
  /// Number of shards (event-queue partitions). 1 runs on the caller's
  /// thread; more spawn the worker threads for each Run.
  uint32_t num_shards = 1;
  /// Worker threads executing the shards. 0 means one per shard; values
  /// above num_shards are clamped down. Fewer workers than shards
  /// over-decomposes the run, which is what makes work stealing bite.
  uint32_t num_workers = 0;
  /// K x K row-major matrix of per-shard-pair lower bounds: entry
  /// [src * K + dst] bounds the delay of events src creates for dst.
  /// Required when num_shards > 1 (may be empty for one shard). Off-diagonal
  /// entries must be positive; diagonal entries are ignored (intra-shard
  /// scheduling is unconstrained). A single bound is the uniform matrix.
  std::vector<SimTime> lookahead_matrix;
  /// Size of the source-id space (ids are [0, num_sources)). Source 0 is
  /// conventionally the controller; the engine maps peer p to source p + 1.
  SourceId num_sources = 1;
};

/// Lifetime counters of the parallel scheduler. A single shard needs one
/// window per Run that executes events, and never steals. `windows` and
/// `occupancy` are the same for every worker count. `idle_ns` is wall-clock
/// and therefore the one non-deterministic quantity here — report it in
/// benches, never in byte-compared artifacts.
struct SchedulerStats {
  uint64_t windows = 0;   ///< synchronization windows completed
  /// Non-empty shard windows executed by a non-home worker (idle claims of
  /// event-less shards are not steals — this counts relocated work).
  uint64_t steals = 0;
  /// Summed worker wait at the window barrier: time spent waiting for the
  /// other workers, so always 0 with one worker (which reads no clock).
  uint64_t idle_ns = 0;
  /// occupancy[k]: windows in which exactly k shards executed >= 1 event —
  /// the skew profile work stealing compensates for.
  std::vector<uint64_t> occupancy;
};

/// \brief K event queues over W worker threads under per-pair conservative
/// windows with intra-window work stealing.
///
/// Typical use:
///   ShardedSimulator sim({.num_shards = 2, .lookahead_matrix = {0, la, la, 0}});
///   sim.ScheduleAt(dst_shard, src, at, fn);   // pre-run, from the controller
///   sim.Run(horizon);                          // K > 1: spawns workers, joins them
///
/// Scheduling rules:
///  - Before/after Run(): any (dst, src, at) is accepted (controller phase).
///  - Inside an event handler: intra-shard events may target any time >= the
///    shard clock; cross-shard events must satisfy `at >= end[dst]` (which
///    the per-pair lookahead bound guarantees for real message delays).
///    Violations CHECK-fail rather than silently reorder.
///  - Each source's events must only ever be created from one shard (the
///    shard owning that source's peer) — single-writer sequence counters.
///  - ScheduleTick follows the same rules, and inside an event handler may
///    only target the executing shard.
class ShardedSimulator {
 public:
  explicit ShardedSimulator(const ShardedSimulatorConfig& config);

  // Not copyable/movable: event callbacks routinely capture `this`.
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Schedules `fn` at absolute time `at` on shard `dst`, created by logical
  /// source `src`. See the class comment for the phase rules.
  void ScheduleAt(ShardId dst, SourceId src, SimTime at, EventFn&& fn);

  /// Schedules a periodic tick: ScheduleAt's key and phase rules, queued on
  /// shard `dst`'s tick lane. Inside an event handler `dst` must be the
  /// executing shard.
  void ScheduleTick(ShardId dst, SourceId src, SimTime at, TickFn fn);

  /// Current time: the executing shard's clock inside an event handler, the
  /// last Run()'s final time (max over shards) on the controller thread.
  SimTime Now() const;

  /// Runs until every queue and mailbox drains, or `horizon` is crossed
  /// (events at t > horizon stay queued). Returns events executed by this
  /// call. num_shards == 1 runs on the caller's thread; otherwise spawns the
  /// workers and joins them before returning.
  uint64_t Run(SimTime horizon = kNoHorizon);

  /// Pre-allocates per-shard event-queue capacity.
  void ReserveEvents(size_t expected_events_per_shard);
  /// Pre-allocates shard `shard`'s tick-lane capacity.
  void ReserveTicks(ShardId shard, size_t expected_ticks);

  /// Shard the calling thread is executing events for, or kNoShard outside
  /// event execution (controller thread, tests).
  static ShardId current_shard();

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t num_workers() const { return num_workers_; }
  /// The lookahead bound the scheduler uses for events src creates for dst
  /// (the matrix entry). Requires src != dst.
  SimTime LookaheadBetween(ShardId src, ShardId dst) const;

  /// Total events executed over the simulator's lifetime.
  uint64_t executed_count() const;
  /// Events currently queued across all shards (tick lanes included) and
  /// mailboxes.
  size_t pending_count() const;
  /// Snapshot of the scheduler counters. Call between runs, not during one.
  SchedulerStats stats() const;

  static constexpr SimTime kNoHorizon = INT64_MAX;

  /// The lookahead closure of a K x K row-major matrix: entry [e * K + d] is
  /// the shortest path e -> d over `lookahead` with at least one edge
  /// (diagonal entries ignored; saturates at kNoHorizon).
  static std::vector<SimTime> LookaheadClosure(const std::vector<SimTime>& lookahead,
                                               uint32_t k);
  /// Window ends from a closure: (*ends)[d] = min over shards e with work
  /// (local_min[e] != kNoHorizon) of local_min[e] + reach[e][d], capped at
  /// horizon + 1 unless the horizon is kNoHorizon.
  static void WindowEnds(const std::vector<SimTime>& reach,
                         const std::vector<SimTime>& local_min, SimTime horizon,
                         std::vector<SimTime>* ends);

 private:
  /// One shard's private state. Padded so adjacent shards' hot fields do not
  /// share cache lines.
  struct alignas(64) Shard {
    EventQueue queue;
    SimTime now = 0;
    uint64_t executed = 0;
    /// outbox[d]: events bound for shard d, flushed at the next barrier.
    std::vector<std::vector<ShardEvent>> outbox;
  };

  /// The barrier's completion step, run once per window.
  struct WindowHook {
    ShardedSimulator* sim;
    void operator()() noexcept { sim->OnBarrier(); }
  };

  /// Checks ScheduleAt/ScheduleTick's shared rules (ids in range, no
  /// controller-phase scheduling during a run, no scheduling into the past)
  /// and takes `src`'s next sequence number.
  uint64_t NextSeq(ShardId dst, SourceId src, SimTime at);
  void WorkerLoop(uint32_t worker);
  /// Executes shard `sid`'s events strictly before window_ends_[sid].
  void RunShardWindow(ShardId sid);
  /// Runs on the last arrival at each barrier phase, before any worker
  /// leaves it: opens the next claim round, ends the window that ran,
  /// drains the mailboxes, republishes local_min_ and begins the next window.
  void OnBarrier();
  /// Derives every shard's window end from the lookahead closure, or flags
  /// completion.
  void BeginWindow();
  /// Occupancy accounting for the window that just ended.
  void EndWindow();
  /// Claims the next shard not yet claimed in `round` for `worker` (home
  /// block first, then steals), or kNoShard when none remain.
  ShardId ClaimShard(uint32_t worker, uint64_t round);

  std::vector<Shard> shards_;
  std::vector<uint64_t> next_seq_;  ///< per-source; single-writer by contract
  std::vector<SimTime> lookahead_matrix_;  ///< K*K row-major
  std::vector<SimTime> reach_;             ///< LookaheadClosure(lookahead_matrix_)
  uint32_t num_workers_ = 1;
  std::barrier<WindowHook> barrier_;

  // claims_[s]: the last claim round that won shard s. Every barrier phase
  // opens a round, and a claim CASes an older stamp to it, so nothing is ever
  // reset. Claiming is the only inter-worker communication inside a phase;
  // the shard a worker wins is run exactly once, sequentially.
  std::unique_ptr<std::atomic<uint64_t>[]> claims_;
  uint64_t claim_round_ = 1;  ///< written only by OnBarrier

  // Window state, written only by the barrier completion step (and
  // therefore ordered by the barrier) or before workers start.
  std::vector<SimTime> local_min_;    ///< per-shard published next-event time
  std::vector<SimTime> window_ends_;  ///< per-shard window bound
  std::vector<uint64_t> executed_at_window_start_;
  SimTime horizon_ = kNoHorizon;  ///< the current Run's horizon
  /// No window is open: Run starts so, and BeginWindow leaves it so when
  /// nothing is left to run before the horizon.
  bool done_ = true;
  bool running_ = false;
  SimTime controller_now_ = 0;
  uint64_t windows_ = 0;

  // Scheduler stats; steals/idle are touched concurrently by workers.
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> idle_ns_{0};
  std::vector<uint64_t> occupancy_;  ///< hook-only, see SchedulerStats
};

}  // namespace locaware::sim
