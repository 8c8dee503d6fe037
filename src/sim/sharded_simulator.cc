#include "sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"

namespace locaware::sim {

namespace {
/// Which shard the calling thread is executing events for. Thread-local so
/// several simulators (e.g. one engine per protocol in the figure benches)
/// can run concurrently on disjoint thread sets.
thread_local ShardId tls_current_shard = kNoShard;

/// t + delta without overflowing past the kNoHorizon sentinel.
inline SimTime SaturatingAdd(SimTime t, SimTime delta) {
  return (t > ShardedSimulator::kNoHorizon - delta) ? ShardedSimulator::kNoHorizon
                                                    : t + delta;
}
}  // namespace

ShardedSimulator::ShardedSimulator(const ShardedSimulatorConfig& config)
    : shards_(config.num_shards),
      next_seq_(config.num_sources, 0),
      lookahead_matrix_(config.lookahead_matrix),
      num_workers_(config.num_workers == 0
                       ? config.num_shards
                       : std::min(config.num_workers, config.num_shards)),
      barrier_(num_workers_, WindowHook{this}),
      claims_(std::make_unique<std::atomic<uint64_t>[]>(config.num_shards)),
      local_min_(config.num_shards, kNoHorizon),
      window_ends_(config.num_shards, 0),
      executed_at_window_start_(config.num_shards, 0),
      occupancy_(config.num_shards + 1, 0) {
  LOCAWARE_CHECK_GT(config.num_shards, 0u);
  LOCAWARE_CHECK_GT(config.num_sources, 0u);
  const uint32_t k = config.num_shards;
  if (k > 1) {
    LOCAWARE_CHECK_EQ(lookahead_matrix_.size(), static_cast<size_t>(k) * k)
        << "lookahead matrix must be num_shards^2 row-major";
    for (ShardId s = 0; s < k; ++s) {
      for (ShardId d = 0; d < k; ++d) {
        if (s == d) continue;
        LOCAWARE_CHECK_GT(lookahead_matrix_[s * k + d], 0)
            << "pairwise lookahead " << s << "->" << d << " must be positive";
      }
    }
  }
  reach_ = LookaheadClosure(lookahead_matrix_, k);
  for (Shard& shard : shards_) shard.outbox.resize(k);
}

ShardId ShardedSimulator::current_shard() { return tls_current_shard; }

SimTime ShardedSimulator::LookaheadBetween(ShardId src, ShardId dst) const {
  LOCAWARE_CHECK_LT(src, shards_.size());
  LOCAWARE_CHECK_LT(dst, shards_.size());
  LOCAWARE_CHECK_NE(src, dst);
  return lookahead_matrix_[src * shards_.size() + dst];
}

std::vector<SimTime> ShardedSimulator::LookaheadClosure(
    const std::vector<SimTime>& lookahead, uint32_t k) {
  // Floyd–Warshall from "no self-loops": the diagonal starts unreachable, so
  // it ends as the shortest cycle and every entry is a path of >= 1 edge.
  std::vector<SimTime> reach(static_cast<size_t>(k) * k, kNoHorizon);
  for (size_t i = 0; i < reach.size(); ++i) {
    if (i / k != i % k) reach[i] = lookahead[i];
  }
  for (size_t m = 0; m < k; ++m) {
    for (size_t e = 0; e < k; ++e) {
      for (size_t d = 0; d < k; ++d) {
        const SimTime via = SaturatingAdd(reach[e * k + m], reach[m * k + d]);
        reach[e * k + d] = std::min(reach[e * k + d], via);
      }
    }
  }
  return reach;
}

void ShardedSimulator::WindowEnds(const std::vector<SimTime>& reach,
                                  const std::vector<SimTime>& local_min,
                                  SimTime horizon, std::vector<SimTime>* ends) {
  // Events at exactly `horizon` still run; the +1 keeps the strict `<` window
  // comparison. With one shard nothing else bounds the window.
  const size_t k = local_min.size();
  ends->assign(k, horizon == kNoHorizon ? kNoHorizon : horizon + 1);
  for (size_t e = 0; e < k; ++e) {
    if (local_min[e] == kNoHorizon) continue;
    for (size_t d = 0; d < k; ++d) {
      (*ends)[d] = std::min((*ends)[d], SaturatingAdd(local_min[e], reach[e * k + d]));
    }
  }
}

uint64_t ShardedSimulator::NextSeq(ShardId dst, SourceId src, SimTime at) {
  LOCAWARE_CHECK_LT(dst, shards_.size());
  LOCAWARE_CHECK_LT(src, next_seq_.size());
  const ShardId cur = tls_current_shard;
  if (cur == kNoShard) {
    // Controller phase: workers are not running, direct pushes are safe.
    LOCAWARE_CHECK(!running_) << "non-worker scheduling during a parallel run";
  } else {
    LOCAWARE_CHECK_GE(at, shards_[cur].now) << "scheduling into the past";
  }
  return next_seq_[src]++;
}

void ShardedSimulator::ScheduleAt(ShardId dst, SourceId src, SimTime at,
                                  EventFn&& fn) {
  const uint64_t seq = NextSeq(dst, src, at);
  const ShardId cur = tls_current_shard;
  if (cur != kNoShard && dst != cur) {
    // Conservative-window soundness: a remote event may only land at or
    // beyond the *destination's* window end, where it has provably not
    // executed yet. Real message delays satisfy this via the lookahead
    // bound: at = now + delay >= T_cur + LA[cur][dst] >= end[dst].
    LOCAWARE_CHECK_GE(at, window_ends_[dst])
        << "cross-shard event inside the destination's lookahead window";
    if (num_workers_ > 1) {  // another worker may own dst's queue right now
      shards_[cur].outbox[dst].emplace_back(at, src, seq, std::move(fn));
      return;
    }
  }
  shards_[dst].queue.PushKeyed(at, src, seq, std::move(fn));
}

void ShardedSimulator::ScheduleTick(ShardId dst, SourceId src, SimTime at, TickFn fn) {
  const uint64_t seq = NextSeq(dst, src, at);
  // Ticks never cross shards: the lane has no mailbox path, and a foreign
  // shard's queue is another worker's property mid-window.
  const ShardId cur = tls_current_shard;
  LOCAWARE_CHECK(cur == kNoShard || dst == cur)
      << "tick for shard " << dst << " scheduled from shard " << cur;
  shards_[dst].queue.PushTick(at, src, seq, std::move(fn));
}

SimTime ShardedSimulator::Now() const {
  const ShardId cur = tls_current_shard;
  if (cur != kNoShard && cur < shards_.size()) return shards_[cur].now;
  return controller_now_;
}

void ShardedSimulator::ReserveEvents(size_t expected_events_per_shard) {
  for (Shard& shard : shards_) shard.queue.Reserve(expected_events_per_shard);
}

void ShardedSimulator::ReserveTicks(ShardId shard, size_t expected_ticks) {
  LOCAWARE_CHECK_LT(shard, shards_.size());
  shards_[shard].queue.ReserveTicks(expected_ticks);
}

uint64_t ShardedSimulator::executed_count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.executed;
  return total;
}

size_t ShardedSimulator::pending_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.queue.size();
    for (const auto& box : shard.outbox) total += box.size();
  }
  return total;
}

SchedulerStats ShardedSimulator::stats() const {
  SchedulerStats stats;
  stats.windows = windows_;
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.idle_ns = idle_ns_.load(std::memory_order_relaxed);
  stats.occupancy = occupancy_;
  return stats;
}

ShardId ShardedSimulator::ClaimShard(uint32_t worker, uint64_t round) {
  const uint32_t k = static_cast<uint32_t>(shards_.size());
  // Within a phase the only write to a stamp is a claim to `round`, so one
  // strong CAS from an older stamp decides the race.
  const auto try_claim = [&](ShardId s) {
    uint64_t seen = claims_[s].load(std::memory_order_relaxed);
    return seen < round &&
           claims_[s].compare_exchange_strong(seen, round, std::memory_order_acq_rel);
  };
  // Home block first (shard s is worker s % W's home): keeps a shard's state
  // on the same core window after window when the load is balanced.
  for (ShardId s = worker; s < k; s += num_workers_) {
    if (try_claim(s)) return s;
  }
  for (ShardId s = 0; s < k; ++s) {
    if (s % num_workers_ == worker) continue;  // home block already scanned
    if (try_claim(s)) return s;
  }
  return kNoShard;
}

void ShardedSimulator::RunShardWindow(ShardId sid) {
  Shard& me = shards_[sid];
  tls_current_shard = sid;
  // The claim guarantees a single executor per shard per window, so this loop
  // is exactly the sequential drain a statically bound worker would run: pop
  // in (time, source, seq) order against the shard's own queue and clock.
  const SimTime end = window_ends_[sid];
  while (!me.queue.empty() && me.queue.PeekTime() < end) {
    SimTime t;
    EventFn fn = me.queue.Pop(&t);
    LOCAWARE_CHECK_GE(t, me.now);
    me.now = t;
    ++me.executed;
    fn();
  }
  tls_current_shard = kNoShard;
}

void ShardedSimulator::OnBarrier() {
  ++claim_round_;
  if (!done_) EndWindow();
  for (Shard& sender : shards_) {
    for (ShardId d = 0; d < shards_.size(); ++d) {
      for (ShardEvent& ev : sender.outbox[d]) {
        shards_[d].queue.PushKeyed(ev.time, ev.src, ev.seq, std::move(ev.fn));
      }
      sender.outbox[d].clear();
    }
  }
  for (ShardId s = 0; s < shards_.size(); ++s) {
    local_min_[s] = shards_[s].queue.empty() ? kNoHorizon : shards_[s].queue.PeekTime();
  }
  BeginWindow();
}

void ShardedSimulator::BeginWindow() {
  SimTime t_min = kNoHorizon;
  for (SimTime t : local_min_) t_min = std::min(t_min, t);
  done_ = t_min == kNoHorizon || t_min > horizon_;
  if (done_) return;
  ++windows_;
  WindowEnds(reach_, local_min_, horizon_, &window_ends_);
  for (ShardId s = 0; s < shards_.size(); ++s) {
    executed_at_window_start_[s] = shards_[s].executed;
  }
}

void ShardedSimulator::EndWindow() {
  uint32_t busy = 0;
  for (ShardId s = 0; s < shards_.size(); ++s) {
    if (shards_[s].executed > executed_at_window_start_[s]) ++busy;
  }
  ++occupancy_[busy];
}

void ShardedSimulator::WorkerLoop(uint32_t worker) {
  while (true) {
    // 1. Close the last window and open the next (or finish). The standard
    // orders every arrival before the completion step and the completion
    // before any wait returns, which is what makes the lock-free mailbox
    // handoff and the window state sound. The wait is the idle time stealing
    // exists to shrink; a lone worker waits for nobody, so it reads no clock.
    using Clock = std::chrono::steady_clock;
    const bool timed = num_workers_ > 1;
    const Clock::time_point idle_start = timed ? Clock::now() : Clock::time_point{};
    barrier_.arrive_and_wait();
    if (timed) {
      const std::chrono::nanoseconds idle = Clock::now() - idle_start;
      idle_ns_.fetch_add(static_cast<uint64_t>(idle.count()), std::memory_order_relaxed);
    }
    if (done_) break;

    // 2. Execute claimed shards inside their windows, batching remote sends.
    // The home shard block comes first; whatever is left afterwards is a
    // steal — whole remaining sub-queues, never event-level interleaving. A
    // steal only counts when the shard actually ran events this window, so
    // the stat measures relocated work, not claim churn over idle shards.
    const uint64_t round = claim_round_;
    for (ShardId sid = ClaimShard(worker, round); sid != kNoShard;
         sid = ClaimShard(worker, round)) {
      RunShardWindow(sid);
      if (sid % num_workers_ != worker &&
          shards_[sid].executed > executed_at_window_start_[sid]) {
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

uint64_t ShardedSimulator::Run(SimTime horizon) {
  const uint64_t executed_before = executed_count();
  horizon_ = horizon;
  running_ = true;
  if (shards_.size() == 1) {
    WorkerLoop(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_workers_);
    for (uint32_t w = 0; w < num_workers_; ++w) {
      workers.emplace_back([this, w] { WorkerLoop(w); });
    }
    for (std::thread& worker : workers) worker.join();
  }
  running_ = false;

  SimTime now = 0;
  for (Shard& shard : shards_) {
    if (shard.queue.empty() && horizon != kNoHorizon && shard.now < horizon) {
      shard.now = horizon;  // idle advance so repeated Run(horizon) calls compose
    }
    now = std::max(now, shard.now);
  }
  controller_now_ = now;
  return executed_count() - executed_before;
}

}  // namespace locaware::sim
