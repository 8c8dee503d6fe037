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

uint32_t EventQueue::AcquireSlot(EventFn fn) {
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

void EventQueue::PushKeyed(SimTime at, SourceId src, uint64_t seq, EventFn fn) {
  Entry entry{at, src, AcquireSlot(std::move(fn)), seq};
  heap_.emplace_back();  // open a hole at the tail, then sift the entry in
  SiftUp(heap_.size() - 1, entry);
}

SimTime EventQueue::PeekTime() const {
  LOCAWARE_CHECK(!heap_.empty()) << "PeekTime on empty queue";
  return heap_.front().time;
}

EventFn EventQueue::Pop(SimTime* time) {
  LOCAWARE_CHECK(!heap_.empty()) << "Pop on empty queue";
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
