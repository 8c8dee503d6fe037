// Pooled, intrusively refcounted query payloads for the forward fan-out.
//
// Every forwarded query hop used to mint a std::make_shared<QueryMessage>:
// one heap allocation for the control block + payload, freed when the last
// delivery event ran — the single remaining per-event allocation on the storm
// path after PR 7 inlined the event closures. This pool replaces it with
// slab-recycled nodes (the event queue's slab idiom, sim/event_queue.h):
// a node holds the message inline next to its refcount, a QueryPayloadRef is
// one pointer (copies bump the count, the last destruction returns the node
// to a lock-free free list), and a recycled node's message keeps its keyword
// SmallVector capacity, so steady-state fan-out performs ZERO allocations.
//
// Thread safety: a payload is written by the source shard's worker, then read
// by every destination shard's worker, and the last Ref may die on any of
// them. Hence the shared_ptr discipline on the count (fetch_sub acq_rel, so
// the thread that frees observes every other thread's last use) and a tagged
// Treiber stack for the free list (the tag makes CAS ABA-safe; node indices
// keep the head word to 64 bits). Message *content* needs no further
// synchronization: it is written before the refs are handed out, and the
// cross-shard event handoff orders that write before any reader, exactly as
// it did for the shared_ptr payloads.
//
// Provenance contract: nodes live in pool-owned slabs (geometrically sized,
// published through atomic chunk pointers so readers never lock) and are
// never returned to the OS until the pool dies — the same wholesale-release
// rule as the event slab. The pool must outlive every Ref;
// the Engine declares it before the simulator so queued closures die first.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>

#include "common/check.h"
#include "overlay/message.h"

namespace locaware::core {

class QueryPayloadPool;

/// \brief Shared handle to a pooled, immutable-after-publish query message.
///
/// Copy = refcount bump, 8 bytes — cheap enough to capture per fan-out
/// target. `mutable_msg()` is for the producing hop only, before the first
/// copy is handed out; after that the payload is read-only by convention.
class QueryPayloadRef {
 public:
  QueryPayloadRef() = default;

  QueryPayloadRef(const QueryPayloadRef& other) : node_(other.node_) {
    if (node_ != nullptr) {
      node_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  QueryPayloadRef(QueryPayloadRef&& other) noexcept : node_(other.node_) {
    other.node_ = nullptr;
  }

  QueryPayloadRef& operator=(const QueryPayloadRef& other) {
    if (this != &other) {
      QueryPayloadRef copy(other);  // bump first: safe under self-aliasing
      Drop();
      node_ = copy.node_;
      copy.node_ = nullptr;
    }
    return *this;
  }

  QueryPayloadRef& operator=(QueryPayloadRef&& other) noexcept {
    if (this != &other) {
      Drop();
      node_ = other.node_;
      other.node_ = nullptr;
    }
    return *this;
  }

  ~QueryPayloadRef() { Drop(); }

  explicit operator bool() const { return node_ != nullptr; }

  const overlay::QueryMessage& operator*() const { return node_->msg; }
  const overlay::QueryMessage* operator->() const { return &node_->msg; }

  /// Producer-side access for the hop mutation (ttl/hops) between Acquire
  /// and the first share. Do not call once copies exist.
  overlay::QueryMessage* mutable_msg() { return &node_->msg; }

 private:
  friend class QueryPayloadPool;

  struct Node {
    overlay::QueryMessage msg;
    QueryPayloadPool* owner = nullptr;
    std::atomic<uint32_t> refs{0};
    uint32_t self_idx = 0;               ///< global node index (free-list key)
    std::atomic<uint32_t> next_free{0};  ///< successor idx + 1; 0 = list end
  };

  explicit QueryPayloadRef(Node* node) : node_(node) {}

  inline void Drop();

  Node* node_ = nullptr;
};

/// \brief Slab allocator + lock-free free list for query payload nodes.
class QueryPayloadPool {
 public:
  QueryPayloadPool() = default;

  QueryPayloadPool(const QueryPayloadPool&) = delete;
  QueryPayloadPool& operator=(const QueryPayloadPool&) = delete;

  ~QueryPayloadPool() {
    for (auto& chunk : chunks_) {
      delete[] chunk.load(std::memory_order_relaxed);
    }
  }

  /// Returns a node holding a copy of `src` with refcount 1. Recycles a
  /// freed node when one is available (its message buffers are reused:
  /// copy-assignment into retained SmallVector capacity allocates nothing);
  /// grows a new slab otherwise.
  QueryPayloadRef Acquire(const overlay::QueryMessage& src) {
    Node* node = PopFree();
    if (node == nullptr) node = AllocateNode();
    node->msg = src;
    node->refs.store(1, std::memory_order_relaxed);
    return QueryPayloadRef(node);
  }

  /// Nodes ever created (slab occupancy; for tests and bench counters).
  size_t capacity() const { return total_nodes_.load(std::memory_order_relaxed); }

 private:
  friend class QueryPayloadRef;

  using Node = QueryPayloadRef::Node;

  /// Chunk c holds kBaseChunk << c nodes; 20 chunks cap out at ~67M in
  /// flight, far beyond any workload (fan-out in flight is bounded by the
  /// event queue's depth).
  static constexpr size_t kBaseChunk = 64;
  static constexpr size_t kMaxChunks = 20;

  /// Global index -> chunk/slot. Chunk starts are kBaseChunk * (2^c - 1), so
  /// the chunk of index i is bit_width(i / kBaseChunk + 1) - 1.
  Node* NodeAt(uint32_t idx) const {
    const uint32_t c = static_cast<uint32_t>(
        std::bit_width((idx / kBaseChunk) + 1) - 1);
    const uint32_t start = static_cast<uint32_t>(kBaseChunk * ((1u << c) - 1));
    Node* chunk = chunks_[c].load(std::memory_order_acquire);
    return chunk + (idx - start);
  }

  /// Treiber pop. Head word = (tag << 32) | (top index + 1); tag increments
  /// on every successful CAS, so a pop cannot mistake a recycled head for an
  /// unchanged one (ABA).
  Node* PopFree() {
    uint64_t head = free_head_.load(std::memory_order_acquire);
    while (true) {
      const uint32_t idx_plus1 = static_cast<uint32_t>(head);
      if (idx_plus1 == 0) return nullptr;
      Node* node = NodeAt(idx_plus1 - 1);
      const uint32_t next = node->next_free.load(std::memory_order_relaxed);
      const uint64_t want = ((head >> 32) + 1) << 32 | next;
      if (free_head_.compare_exchange_weak(head, want,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        return node;
      }
    }
  }

  /// Treiber push; called by the last Ref's destructor on whatever thread
  /// that happens to be.
  void PushFree(Node* node) {
    uint64_t head = free_head_.load(std::memory_order_relaxed);
    while (true) {
      node->next_free.store(static_cast<uint32_t>(head),
                            std::memory_order_relaxed);
      const uint64_t want = ((head >> 32) + 1) << 32 | (node->self_idx + 1);
      if (free_head_.compare_exchange_weak(head, want,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        return;
      }
    }
  }

  /// Slow path: grow one slab under the mutex, keep the first node, push the
  /// rest. Concurrent growers serialize; concurrent Acquires may consume the
  /// pushed nodes immediately — that is fine, they were free.
  Node* AllocateNode() {
    std::lock_guard<std::mutex> lock(grow_mutex_);
    // Another grower may have refilled the list while we waited.
    if (Node* node = PopFree(); node != nullptr) return node;
    const size_t c = num_chunks_;
    LOCAWARE_CHECK_LT(c, kMaxChunks) << "query payload pool exhausted";
    const size_t count = kBaseChunk << c;
    const uint32_t start = static_cast<uint32_t>(kBaseChunk * ((1u << c) - 1));
    Node* chunk = new Node[count];
    for (size_t i = 0; i < count; ++i) {
      chunk[i].owner = this;
      chunk[i].self_idx = start + static_cast<uint32_t>(i);
    }
    chunks_[c].store(chunk, std::memory_order_release);
    num_chunks_ = c + 1;
    total_nodes_.fetch_add(count, std::memory_order_relaxed);
    for (size_t i = 1; i < count; ++i) PushFree(&chunk[i]);
    return &chunk[0];
  }

  std::atomic<uint64_t> free_head_{0};  ///< (tag << 32) | (top idx + 1)
  std::atomic<Node*> chunks_[kMaxChunks] = {};
  std::atomic<size_t> total_nodes_{0};
  size_t num_chunks_ = 0;  ///< guarded by grow_mutex_
  std::mutex grow_mutex_;
};

inline void QueryPayloadRef::Drop() {
  if (node_ == nullptr) return;
  // shared_ptr's discipline: acq_rel on the decrement, so the thread that
  // recycles the node observes every other thread's final reads.
  if (node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    node_->owner->PushFree(node_);
  }
  node_ = nullptr;
}

}  // namespace locaware::core
