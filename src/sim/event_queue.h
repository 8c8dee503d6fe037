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
/// response contiguous) plus a few ids — with modest headroom. When a new
/// capture trips the constraint, either trim it (capture ids, not state;
/// share a big immutable payload via shared_ptr like ForwardQuery does) or
/// consciously raise this budget — every outstanding event holds a slab
/// slot of this size (peak-outstanding-events x the budget of memory).
inline constexpr size_t kEventInlineBytes = 240;

/// Callback executed when an event fires. Move-only, nothrow-movable,
/// inline-only storage: pushing, sifting, and popping an event never touch
/// the allocator.
using EventFn = common::InlineFunction<void(), kEventInlineBytes>;

static_assert(std::is_nothrow_move_constructible_v<EventFn> &&
                  std::is_nothrow_move_assignable_v<EventFn>,
              "heap sift operations relocate events with no exception "
              "machinery; EventFn moves must not throw");

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
/// kEventInlineBytes-sized closures — and a payload is written exactly once
/// at PushKeyed and moved out exactly once at Pop. Both sides are plain vectors,
/// so after Reserve the steady state never touches the allocator.
class EventQueue {
 public:
  /// Enqueues `fn` to fire at absolute time `at` with an explicit (source,
  /// sequence) tie-break key. The caller owns sequence assignment (the
  /// sharded simulator keeps one counter per source).
  void PushKeyed(SimTime at, SourceId src, uint64_t seq, EventFn fn);

  /// Pre-allocates capacity for `expected_events` queued entries.
  void Reserve(size_t expected_events) {
    heap_.reserve(expected_events);
    slots_.reserve(expected_events);
    free_slots_.reserve(expected_events);
  }

  /// True when no events remain.
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

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

  /// True when the entry at `a` must fire before the entry at `b`.
  static bool FiresBefore(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }

  /// Restores the heap property from a hole at `pos` whose entry is `moving`.
  void SiftUp(size_t pos, Entry moving);
  void SiftDown(size_t pos, Entry moving);

  /// Parks `fn` in the payload slab; returns its slot index.
  uint32_t AcquireSlot(EventFn fn);

  std::vector<Entry> heap_;          ///< binary min-heap, root at index 0
  std::vector<EventFn> slots_;       ///< payload slab, indexed by Entry::slot
  std::vector<uint32_t> free_slots_; ///< recycled slab indexes (LIFO)
};

}  // namespace locaware::sim
