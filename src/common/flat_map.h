// Flat open-addressing hash map for the data plane.
//
// The hot per-peer state (pending-query maps, response-index tables, neighbor
// metadata, catalog interning) used std::unordered_map, which heap-allocates
// one node per element and chases a pointer per probe. FlatMap replaces that
// with robin-hood open addressing over a single flat buffer: one metadata
// byte per bucket (probe distance + 1; 0 = empty) followed by the slot array,
// allocated together in ONE allocation per table. Lookups walk contiguous
// metadata bytes, inserts displace richer-than-thou entries (robin hood),
// erases backward-shift the probe chain closed — no tombstones, so load never
// degrades and probe distances stay short (bench/micro_flat pins the win over
// std::unordered_map).
//
// Capacity is a power of two (mask, don't mod); the default hashers run keys
// through a full-avalanche finalizer (Mix64 / FNV-1a + Mix64) because masking
// keeps only low bits. Max load factor is 3/4. Growth doubles capacity and
// rehashes in place-order.
//
// Iteration caveat — THE rule for call sites: iteration order is TABLE order
// (hash layout), not insertion or key order, and changes on rehash. Callers
// whose behavior depends on the order they act on entries (sweeps, reports,
// anything feeding the deterministic engine) must collect keys and sort
// first. Order-insensitive folds (counting, summing, set-equality checks)
// may iterate directly.
//
// The flat buffer comes from sized ::operator new / ::operator delete. A move
// steals the source's buffer; a copy allocates its own.
//
// Element requirements: slots relocate by move during growth, displacement
// and backward-shift, with no strong-exception machinery, so mapped values
// must be nothrow-move-constructible and move-assignable. Keys are taken by
// value on insert and should be cheap to copy (the data plane's keys are
// 4-16 byte ids and string_views).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace locaware {

/// Default hasher: full-avalanche mixing so that power-of-two masking (which
/// keeps only low bits) still sees every input bit. Transparent — lookups may
/// pass any type the operator() accepts without converting to the key type.
template <typename K, typename Enable = void>
struct FlatHash;

template <typename K>
struct FlatHash<K, std::enable_if_t<std::is_integral_v<K> || std::is_enum_v<K>>> {
  using is_transparent = void;
  size_t operator()(K key) const {
    return static_cast<size_t>(Mix64(static_cast<uint64_t>(key)));
  }
};

/// String-ish keys hash the bytes (FNV-1a) then avalanche; string_view,
/// std::string and char* all land on the same operator(), which is what makes
/// heterogeneous lookup work (find a string_view-keyed entry by std::string
/// without materializing a view first, and vice versa).
struct FlatStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return static_cast<size_t>(Mix64(Fnv1a64(key)));
  }
};

template <>
struct FlatHash<std::string_view> : FlatStringHash {};
template <>
struct FlatHash<std::string> : FlatStringHash {};

namespace flat_detail {

/// \brief Robin-hood table core; FlatMap is a thin view on it.
///
/// `Slot` is the stored record, `KeyOf` projects a slot to its key. The table
/// owns one buffer holding `cap_` slots followed by `cap_` metadata bytes
/// (metadata alignment is 1, so slots-first needs no padding).
template <typename Slot, typename KeyOf, typename Hash, typename Eq>
class RawFlatTable {
  static_assert(std::is_nothrow_move_constructible_v<Slot>,
                "slots relocate during growth/displacement with no "
                "strong-exception machinery");
  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "the single-buffer layout uses default operator new alignment");

 public:
  static constexpr size_t kNpos = std::numeric_limits<size_t>::max();

  RawFlatTable() = default;

  RawFlatTable(const RawFlatTable& other) { CopyFrom(other); }

  RawFlatTable(RawFlatTable&& other) noexcept { MoveFrom(&other); }

  RawFlatTable& operator=(const RawFlatTable& other) {
    if (this != &other) {
      DestroyAll();
      FreeBuffer();
      slots_ = nullptr;
      meta_ = nullptr;
      cap_ = 0;
      size_ = 0;
      CopyFrom(other);
    }
    return *this;
  }

  RawFlatTable& operator=(RawFlatTable&& other) noexcept {
    if (this != &other) {
      DestroyAll();
      FreeBuffer();
      MoveFrom(&other);
    }
    return *this;
  }

  ~RawFlatTable() {
    DestroyAll();
    FreeBuffer();
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bucket count (power of two; 0 before the first insert/reserve).
  size_t bucket_count() const { return cap_; }

  /// Pre-sizes the table for `want` elements without rehashing on the way
  /// there (binary loaders call this with the element count from the header).
  void reserve(size_t want) {
    size_t need = NormalCapacity(want);
    if (need > cap_) Rehash(need);
  }

  void clear() {
    DestroyAll();
    if (cap_ != 0) std::memset(meta_, 0, cap_);
    size_ = 0;
  }

  template <typename Q>
  size_t FindIndex(const Q& key) const {
    if (size_ == 0) return kNpos;
    const size_t mask = cap_ - 1;
    size_t idx = Hash{}(key) & mask;
    uint8_t dist = 1;  // stored metadata is probe distance + 1
    while (true) {
      const uint8_t m = meta_[idx];
      // Robin-hood early exit: every stored entry at probe distance >= ours
      // with our hash would have displaced a richer one — if this bucket is
      // empty or holds a richer entry, the key cannot be further along.
      if (m < dist) return kNpos;
      if (m == dist && Eq{}(KeyOf{}(slots_[idx]), key)) return idx;
      idx = (idx + 1) & mask;
      if (++dist == 0) return kNpos;  // wrapped past max storable distance
    }
  }

  /// Inserts `slot` (key known absent; load already ensured). Returns the
  /// bucket the slot landed in, or kNpos if a mid-insert rehash displaced it
  /// (distance overflow — the caller re-finds by key).
  size_t InsertNew(Slot&& slot) {
    const size_t mask = cap_ - 1;
    size_t idx = Hash{}(KeyOf{}(slot)) & mask;
    uint8_t dist = 1;
    Slot carry = std::move(slot);
    size_t landed = kNpos;
    bool original_in_carry = true;
    while (true) {
      if (meta_[idx] == 0) {
        ::new (static_cast<void*>(slots_ + idx)) Slot(std::move(carry));
        meta_[idx] = dist;
        ++size_;
        return original_in_carry ? idx : landed;
      }
      if (meta_[idx] < dist) {
        // Rob from the rich: the resident is closer to home than we are, so
        // it can afford the longer probe; swap and keep walking its chain.
        using std::swap;
        swap(carry, slots_[idx]);
        swap(dist, meta_[idx]);
        if (original_in_carry) {
          landed = idx;
          original_in_carry = false;
        }
      }
      idx = (idx + 1) & mask;
      if (++dist == std::numeric_limits<uint8_t>::max()) {
        // Probe chain outgrew the metadata byte (pathological clustering).
        // Double and rehash, folding the carried element in; the original
        // element's bucket moved, so report "lost track" and let the caller
        // re-find. Rehash counts the carry, so size_ is already right.
        Rehash(cap_ * 2, &carry);
        return kNpos;
      }
    }
  }

  /// Removes the slot at `idx`, backward-shifting the displaced tail of the
  /// probe chain so no tombstone is left behind. Invalidates iterators.
  void EraseIndex(size_t idx) {
    LOCAWARE_CHECK_LT(idx, cap_);
    LOCAWARE_CHECK(meta_[idx] != 0);
    const size_t mask = cap_ - 1;
    slots_[idx].~Slot();
    size_t next = (idx + 1) & mask;
    while (meta_[next] > 1) {  // distance > 0: shifting back gets it closer home
      ::new (static_cast<void*>(slots_ + idx)) Slot(std::move(slots_[next]));
      slots_[next].~Slot();
      meta_[idx] = meta_[next] - 1;
      idx = next;
      next = (next + 1) & mask;
    }
    meta_[idx] = 0;
    --size_;
  }

  /// Grows if inserting one more element would cross the 3/4 load bound.
  void EnsureSpace() {
    if ((size_ + 1) * 4 > cap_ * 3) Rehash(cap_ == 0 ? kMinCapacity : cap_ * 2);
  }

  size_t NextOccupied(size_t idx) const {
    while (idx < cap_ && meta_[idx] == 0) ++idx;
    return idx;
  }

  Slot& SlotAt(size_t idx) { return slots_[idx]; }
  const Slot& SlotAt(size_t idx) const { return slots_[idx]; }

 private:
  static constexpr size_t kMinCapacity = 8;

  /// Slots first (aligned), metadata bytes after (alignment 1, no padding).
  static size_t BufferBytes(size_t cap) { return cap * (sizeof(Slot) + 1); }

  /// Smallest power-of-two capacity holding `want` elements under 3/4 load.
  static size_t NormalCapacity(size_t want) {
    if (want == 0) return 0;
    size_t cap = kMinCapacity;
    while (want * 4 > cap * 3) cap *= 2;
    return cap;
  }

  void AllocBuffer(size_t cap) {
    const size_t bytes = BufferBytes(cap);
    void* p = ::operator new(bytes);
    slots_ = static_cast<Slot*>(p);
    meta_ = static_cast<uint8_t*>(p) + cap * sizeof(Slot);
    std::memset(meta_, 0, cap);
    cap_ = cap;
  }

  void FreeBuffer() {
    if (cap_ != 0) ::operator delete(slots_, BufferBytes(cap_));
  }

  void DestroyAll() {
    if constexpr (!std::is_trivially_destructible_v<Slot>) {
      for (size_t i = 0; i < cap_; ++i) {
        if (meta_[i] != 0) slots_[i].~Slot();
      }
    }
  }

  /// Replaces the buffer with one of `new_cap` buckets and reinserts every
  /// element (plus `extra`, if given — the carried element of a mid-insert
  /// overflow). A probe chain overflowing again at the bigger size would mean
  /// a >=254-long chain at <= 3/8 load under an avalanche hash — that is a
  /// broken hasher, not a workload, so it CHECK-fails rather than carrying
  /// lossy retry machinery.
  void Rehash(size_t new_cap, Slot* extra = nullptr) {
    Slot* old_slots = slots_;
    uint8_t* old_meta = meta_;
    const size_t old_cap = cap_;
    AllocBuffer(new_cap);
    size_ = 0;
    bool ok = true;
    if (extra != nullptr) ok = TryPlace(std::move(*extra));
    for (size_t i = 0; ok && i < old_cap; ++i) {
      if (old_meta[i] != 0) ok = TryPlace(std::move(old_slots[i]));
    }
    LOCAWARE_CHECK(ok) << "FlatMap probe chain overflow after growth to "
                       << new_cap << " buckets: broken hash function";
    if (old_cap != 0) {
      if constexpr (!std::is_trivially_destructible_v<Slot>) {
        for (size_t i = 0; i < old_cap; ++i) {
          if (old_meta[i] != 0) old_slots[i].~Slot();
        }
      }
      ::operator delete(old_slots, BufferBytes(old_cap));
    }
  }

  /// InsertNew minus the growth escape: false on distance overflow.
  bool TryPlace(Slot&& slot) {
    const size_t mask = cap_ - 1;
    size_t idx = Hash{}(KeyOf{}(slot)) & mask;
    uint8_t dist = 1;
    Slot carry = std::move(slot);
    while (true) {
      if (meta_[idx] == 0) {
        ::new (static_cast<void*>(slots_ + idx)) Slot(std::move(carry));
        meta_[idx] = dist;
        ++size_;
        return true;
      }
      if (meta_[idx] < dist) {
        using std::swap;
        swap(carry, slots_[idx]);
        swap(dist, meta_[idx]);
      }
      idx = (idx + 1) & mask;
      if (++dist == std::numeric_limits<uint8_t>::max()) return false;
    }
  }

  /// Layout-preserving copy (same capacity, same bucket for every element) —
  /// cheaper than reinserting and keeps copies iteration-identical.
  void CopyFrom(const RawFlatTable& other) {
    if (other.cap_ == 0) return;
    AllocBuffer(other.cap_);
    std::memcpy(meta_, other.meta_, cap_);
    if constexpr (std::is_trivially_copyable_v<Slot>) {
      std::memcpy(static_cast<void*>(slots_), other.slots_, cap_ * sizeof(Slot));
    } else {
      for (size_t i = 0; i < cap_; ++i) {
        if (meta_[i] != 0) {
          ::new (static_cast<void*>(slots_ + i)) Slot(other.slots_[i]);
        }
      }
    }
    size_ = other.size_;
  }

  /// Steals `other`'s buffer; `other` is left empty and reusable.
  void MoveFrom(RawFlatTable* other) noexcept {
    slots_ = other->slots_;
    meta_ = other->meta_;
    cap_ = other->cap_;
    size_ = other->size_;
    other->slots_ = nullptr;
    other->meta_ = nullptr;
    other->cap_ = 0;
    other->size_ = 0;
  }

  Slot* slots_ = nullptr;
  uint8_t* meta_ = nullptr;  ///< probe distance + 1 per bucket; 0 = empty
  size_t cap_ = 0;           ///< bucket count, power of two (or 0)
  size_t size_ = 0;
};

/// Forward iterator over occupied buckets, in table order (see the iteration
/// caveat in the file comment). `Ref`/`Ptr` select const or mutable access.
template <typename Table, typename Slot, typename Ref, typename Ptr>
class FlatIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = Slot;
  using difference_type = std::ptrdiff_t;
  using reference = Ref;
  using pointer = Ptr;

  FlatIterator() = default;
  FlatIterator(Table* table, size_t idx) : table_(table), idx_(idx) {}

  Ref operator*() const { return table_->SlotAt(idx_); }
  Ptr operator->() const { return &table_->SlotAt(idx_); }

  FlatIterator& operator++() {
    idx_ = table_->NextOccupied(idx_ + 1);
    return *this;
  }
  FlatIterator operator++(int) {
    FlatIterator old = *this;
    ++*this;
    return old;
  }

  friend bool operator==(const FlatIterator& a, const FlatIterator& b) {
    return a.idx_ == b.idx_;
  }
  friend bool operator!=(const FlatIterator& a, const FlatIterator& b) {
    return a.idx_ != b.idx_;
  }

  size_t index() const { return idx_; }

 private:
  Table* table_ = nullptr;
  size_t idx_ = 0;
};

}  // namespace flat_detail

/// \brief Open-addressing robin-hood map, one flat allocation per table.
///
/// The std::unordered_map replacement for the data plane. Iterators
/// dereference to a slot with public `first`/`second` members (structured
/// bindings work); any insert or erase may invalidate all iterators (growth
/// rehashes, erase backward-shifts). Iteration order is table order — see the
/// file comment for the collect-and-sort rule.
template <typename K, typename V, typename Hash = FlatHash<K>,
          typename Eq = std::equal_to<>>
class FlatMap {
 public:
  struct Slot {
    K first;
    V second;
  };

 private:
  struct KeyOf {
    const K& operator()(const Slot& s) const { return s.first; }
  };
  using Table = flat_detail::RawFlatTable<Slot, KeyOf, Hash, Eq>;

 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = Slot;
  using iterator = flat_detail::FlatIterator<Table, Slot, Slot&, Slot*>;
  using const_iterator =
      flat_detail::FlatIterator<const Table, Slot, const Slot&, const Slot*>;

  FlatMap() = default;

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t bucket_count() const { return table_.bucket_count(); }
  void reserve(size_t want) { table_.reserve(want); }
  void clear() { table_.clear(); }

  iterator begin() { return iterator(&table_, table_.NextOccupied(0)); }
  iterator end() { return iterator(&table_, table_.bucket_count()); }
  const_iterator begin() const {
    return const_iterator(&table_, table_.NextOccupied(0));
  }
  const_iterator end() const {
    return const_iterator(&table_, table_.bucket_count());
  }

  template <typename Q>
  iterator find(const Q& key) {
    const size_t idx = table_.FindIndex(key);
    return idx == Table::kNpos ? end() : iterator(&table_, idx);
  }
  template <typename Q>
  const_iterator find(const Q& key) const {
    const size_t idx = table_.FindIndex(key);
    return idx == Table::kNpos ? end() : const_iterator(&table_, idx);
  }
  template <typename Q>
  bool contains(const Q& key) const {
    return table_.FindIndex(key) != Table::kNpos;
  }

  /// Inserts {key, V(args...)} if absent; returns {iterator, inserted}. The
  /// mapped value is only constructed when the insert happens.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(K key, Args&&... args) {
    size_t idx = table_.FindIndex(key);
    if (idx != Table::kNpos) return {iterator(&table_, idx), false};
    table_.EnsureSpace();
    idx = table_.InsertNew(Slot{key, V(std::forward<Args>(args)...)});
    if (idx == Table::kNpos) idx = table_.FindIndex(key);  // mid-insert rehash
    return {iterator(&table_, idx), true};
  }

  template <typename U>
  std::pair<iterator, bool> insert_or_assign(K key, U&& value) {
    auto [it, inserted] = try_emplace(std::move(key), std::forward<U>(value));
    if (!inserted) it->second = std::forward<U>(value);
    return {it, inserted};
  }

  V& operator[](K key) { return try_emplace(std::move(key)).first->second; }

  /// CHECK-failing lookup for keys that must exist.
  template <typename Q>
  V& at(const Q& key) {
    const size_t idx = table_.FindIndex(key);
    LOCAWARE_CHECK(idx != Table::kNpos) << "FlatMap::at: key absent";
    return table_.SlotAt(idx).second;
  }
  template <typename Q>
  const V& at(const Q& key) const {
    const size_t idx = table_.FindIndex(key);
    LOCAWARE_CHECK(idx != Table::kNpos) << "FlatMap::at: key absent";
    return table_.SlotAt(idx).second;
  }

  template <typename Q>
  size_t erase(const Q& key) {
    const size_t idx = table_.FindIndex(key);
    if (idx == Table::kNpos) return 0;
    table_.EraseIndex(idx);
    return 1;
  }

  /// Erases the pointee; invalidates all iterators (backward shift).
  void erase(const_iterator it) { table_.EraseIndex(it.index()); }
  void erase(iterator it) { table_.EraseIndex(it.index()); }

 private:
  Table table_;
};

}  // namespace locaware
