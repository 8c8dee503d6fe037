#include "sim/event_queue.h"

#include <utility>

#include "common/check.h"

namespace locaware::sim {

void EventQueue::SiftUp(size_t pos, Entry moving) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!FiresBefore(moving, heap_[parent])) break;
    heap_[pos] = std::move(heap_[parent]);
    pos = parent;
  }
  heap_[pos] = std::move(moving);
}

void EventQueue::SiftDown(size_t pos, Entry moving) {
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && FiresBefore(heap_[child + 1], heap_[child])) ++child;
    if (!FiresBefore(heap_[child], moving)) break;
    heap_[pos] = std::move(heap_[child]);
    pos = child;
  }
  heap_[pos] = std::move(moving);
}

uint32_t EventQueue::AcquireSlot(EventFn&& fn) {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
    return slot;
  }
  const uint32_t slot = static_cast<uint32_t>(slots_.size());
  slots_.push_back(std::move(fn));
  return slot;
}

void EventQueue::PushKeyed(SimTime at, SourceId src, uint64_t seq, EventFn&& fn) {
  Entry entry{at, src, AcquireSlot(std::move(fn)), seq};
  heap_.emplace_back();  // open a hole at the tail, then sift the entry in
  SiftUp(heap_.size() - 1, entry);
}

void EventQueue::PushTick(SimTime at, SourceId src, uint64_t seq, TickFn fn) {
  if (lane_size_ != 0) {
    const Tick& tail = lane_[LaneIndex(lane_size_ - 1)];
    if (FiresBefore(Entry{at, src, /*slot=*/0, seq}, tail)) {
      PushKeyed(at, src, seq, EventFn(std::move(fn)));
      return;
    }
  }
  if (lane_size_ == lane_.size()) RegrowLane(lane_.empty() ? 16 : 2 * lane_.size());
  lane_[LaneIndex(lane_size_)] = Tick{at, src, seq, std::move(fn)};
  ++lane_size_;
}

void EventQueue::ReserveTicks(size_t expected_ticks) {
  if (expected_ticks > lane_.size()) RegrowLane(expected_ticks);
}

void EventQueue::RegrowLane(size_t capacity) {
  std::vector<Tick> ring(capacity);
  for (size_t i = 0; i < lane_size_; ++i) {
    ring[i] = std::move(lane_[LaneIndex(i)]);
  }
  lane_ = std::move(ring);
  lane_head_ = 0;
}

SimTime EventQueue::PeekTime() const {
  LOCAWARE_CHECK(!empty()) << "PeekTime on empty queue";
  return LaneFirst() ? lane_[lane_head_].time : heap_.front().time;
}

EventFn EventQueue::Pop(SimTime* time) {
  LOCAWARE_CHECK(!empty()) << "Pop on empty queue";
  if (LaneFirst()) {
    Tick& head = lane_[lane_head_];
    *time = head.time;
    lane_head_ = LaneIndex(1);
    --lane_size_;
    return EventFn(std::move(head.fn));
  }
  const Entry root = heap_.front();
  *time = root.time;
  EventFn fn = std::move(slots_[root.slot]);
  free_slots_.push_back(root.slot);
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
  return fn;
}

}  // namespace locaware::sim
