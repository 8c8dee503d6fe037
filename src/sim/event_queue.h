// Time-ordered event queue with deterministic tie-breaking.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/inline_function.h"
#include "sim/sim_time.h"

namespace locaware::sim {

/// Inline capacity of an event closure, in bytes. Events are *inline
/// values*: a capture that does not fit is a compile error at the scheduling
/// site, never a silent heap spill (see common/inline_function.h). The
/// budget is sized to the engine's largest capture — SendResponse's
/// by-value ResponseMessage (whose SmallVector payloads keep a typical
/// response contiguous) plus a few ids — with modest headroom. Every message
/// travels by value in its event. When a new capture trips the constraint,
/// carry the payload by value and trim the ids around it, or raise this
/// budget deliberately — every outstanding event holds a slab slot of this
/// size (peak-outstanding-events x the budget of memory).
inline constexpr size_t kEventInlineBytes = 240;

/// Inline capacity of a tick closure: a `[this, peer]` capture. Ticks are the
/// self-re-arming per-peer maintenance events; they ride the queue's tick
/// lane (see EventQueue) instead of holding a kEventInlineBytes slab slot.
inline constexpr size_t kTickInlineBytes = 16;

/// Callback executed when an event fires. Move-only, nothrow-movable,
/// inline-only storage: pushing, sifting, and popping an event never touch
/// the allocator.
using EventFn = common::InlineFunction<void(), kEventInlineBytes>;

static_assert(std::is_nothrow_move_constructible_v<EventFn> &&
                  std::is_nothrow_move_assignable_v<EventFn>,
              "heap sift operations relocate events with no exception "
              "machinery; EventFn moves must not throw");

/// Callback of a tick (EventQueue::PushTick). Same inline-only rules as
/// EventFn, at a budget sized to the engine's maintenance-tick capture.
using TickFn = common::InlineFunction<void(), kTickInlineBytes>;

/// Logical source of an event, used for shard-count-invariant tie-breaking.
/// The engine maps source 0 to "the controller" and source p + 1 to peer p.
using SourceId = uint32_t;

/// \brief Min-heap of (time, source, sequence) ordered events.
///
/// Events scheduled for the same instant fire in (source, per-source
/// sequence) order. The caller assigns the key at creation from the
/// *logical* source (the peer whose event handler scheduled it), which makes
/// the tie order a property of the simulation rather than of thread
/// interleaving — the root of the "--shards=K never changes results"
/// contract.
///
/// The heap is hand-rolled over a std::vector rather than std::priority_queue:
/// priority_queue's const top() forces a const_cast to move the callback out,
/// and it cannot pre-size its storage. Here Pop moves the payload legally and
/// Reserve lets callers pre-allocate for a known workload length.
///
/// Storage is split in two: the heap orders 24-byte (time, src, seq, slot)
/// keys, while the fat EventFn payloads sit in a slab indexed by `slot` and
/// recycled through a free list. A sift therefore moves small keys — not
/// kEventInlineBytes-sized closures — and a payload is written exactly once,
/// into its slot (PushKeyed takes it by rvalue reference, so no by-value hop
/// relocates it on the way), and moved out exactly once at Pop. Both sides are
/// plain vectors, so after Reserve the steady state never touches the allocator.
///
/// Beside the heap sits the *tick lane*: a ring of (time, src, seq, TickFn)
/// entries for the periodic per-peer maintenance ticks, which would otherwise
/// be most of the heap's population. A tick joins the ring only when its key
/// does not fire before the ring's tail, so the ring is sorted by
/// construction and its head is its minimum; a tick that would land out of
/// order falls back into the heap as an ordinary event. Self-re-arming ticks
/// are created in execution order at now + interval, so nearly all of them
/// take the O(1) append. PeekTime, Pop, size and empty merge the ring head
/// with the heap root under the same FiresBefore; since every key is unique,
/// the pop sequence is exactly the one a single heap holding every event
/// would produce — the lane changes where an event waits, never when it
/// fires. Once ReserveTicks covers the ticks in flight, the ring never
/// allocates either.
class EventQueue {
 public:
  /// Enqueues `fn` to fire at absolute time `at` with an explicit (source,
  /// sequence) tie-break key. The caller owns sequence assignment (the
  /// sharded simulator keeps one counter per source).
  void PushKeyed(SimTime at, SourceId src, uint64_t seq, EventFn&& fn);

  /// Enqueues a tick under the same keying as PushKeyed. It is appended to
  /// the tick lane when its key does not fire before the lane's tail, and
  /// pushed into the heap (wrapped in an EventFn) otherwise.
  void PushTick(SimTime at, SourceId src, uint64_t seq, TickFn fn);

  /// Pre-allocates capacity for `expected_events` queued entries.
  void Reserve(size_t expected_events) {
    heap_.reserve(expected_events);
    slots_.reserve(expected_events);
    free_slots_.reserve(expected_events);
  }

  /// Pre-allocates tick-lane capacity for `expected_ticks` queued ticks.
  void ReserveTicks(size_t expected_ticks);

  /// True when no events remain (heap and tick lane).
  bool empty() const { return heap_.empty() && lane_size_ == 0; }
  size_t size() const { return heap_.size() + lane_size_; }

  /// Firing time of the earliest event. CHECK-fails when empty.
  SimTime PeekTime() const;

  /// Removes and returns the earliest event's callback, setting *time to its
  /// firing time. CHECK-fails when empty.
  EventFn Pop(SimTime* time);

 private:
  /// Heap node: the ordering key plus the payload's slab index. Kept small
  /// on purpose — sift operations move these, never the closures.
  struct Entry {
    SimTime time;
    SourceId src;
    uint32_t slot;  ///< index into slots_
    uint64_t seq;
  };
  static_assert(std::is_nothrow_move_constructible_v<Entry> &&
                    std::is_nothrow_move_assignable_v<Entry>,
                "SiftUp/SiftDown relocate entries; a throwing move would "
                "corrupt the heap");
  static_assert(sizeof(Entry) <= 24, "sift traffic is sized to small keys");

  /// Tick-lane node: the key plus the closure, stored in place.
  struct Tick {
    SimTime time;
    SourceId src;
    uint64_t seq;
    TickFn fn;
  };
  static_assert(sizeof(Tick) <= 64, "a queued tick is one cache line");

  /// True when the key of `a` must fire before the key of `b` (heap entries
  /// and lane ticks alike).
  template <typename A, typename B>
  static bool FiresBefore(const A& a, const B& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }

  /// True when the next event to fire is the tick lane's head.
  bool LaneFirst() const {
    return lane_size_ != 0 &&
           (heap_.empty() || FiresBefore(lane_[lane_head_], heap_.front()));
  }

  /// Ring index of the tick `offset` places behind the head.
  size_t LaneIndex(size_t offset) const {
    const size_t i = lane_head_ + offset;
    return i < lane_.size() ? i : i - lane_.size();
  }

  /// Re-lays the ring out from index 0 with capacity `capacity` (>=
  /// lane_size_).
  void RegrowLane(size_t capacity);

  /// Restores the heap property from a hole at `pos` whose entry is `moving`.
  void SiftUp(size_t pos, Entry moving);
  void SiftDown(size_t pos, Entry moving);

  /// Parks `fn` in the payload slab; returns its slot index.
  uint32_t AcquireSlot(EventFn&& fn);

  std::vector<Entry> heap_;          ///< binary min-heap, root at index 0
  std::vector<EventFn> slots_;       ///< payload slab, indexed by Entry::slot
  std::vector<uint32_t> free_slots_; ///< recycled slab indexes (LIFO)

  std::vector<Tick> lane_;  ///< tick ring, sized to its capacity
  size_t lane_head_ = 0;    ///< ring index of the earliest tick
  size_t lane_size_ = 0;    ///< ticks in the ring
};

}  // namespace locaware::sim
