// Inline small-capacity vector for the data plane's short lists.
//
// The response index stores thousands of tiny lists (a file's ~3 keyword
// ids, its <= 8 providers): std::vector puts every one of them on the heap,
// so cache churn turns into allocator churn. A
// SmallVector<T, N> keeps up to N elements inline inside the owner and only
// spills to the heap past that, which removes the per-entry allocation on
// the common path entirely (bench/micro_cache pins the win).
//
// Element requirements: T must be nothrow-move-constructible (growth and
// container moves relocate elements with no strong-exception machinery) and
// copy-constructible (the self-aliasing push_back/insert guard takes a
// copy). Trivially copyable types — the data plane's ids and POD structs —
// take memcpy fast paths selected at compile time; everything else (e.g. a
// message record that itself holds a SmallVector) is moved element-wise, so
// nesting SmallVectors is supported.
//
// Spill buffers come from sized ::operator new / ::operator delete. A move
// steals the source's buffer; a copy allocates its own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace locaware {

/// \brief Contiguous vector with N inline slots, heap spill past N.
template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "SmallVector relocates elements during growth and container "
                "moves with no strong-exception machinery");
  static_assert(std::is_copy_constructible_v<T>,
                "push_back/insert guard self-aliasing by copying the value");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "Grow() uses the default operator new; overaligned types "
                "would get misaligned heap storage");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  using reverse_iterator = std::reverse_iterator<T*>;
  using const_reverse_iterator = std::reverse_iterator<const T*>;

  SmallVector() = default;

  SmallVector(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  template <typename It>
  SmallVector(It first, It last) {
    assign(first, last);
  }

  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }

  SmallVector(SmallVector&& other) noexcept { MoveFrom(&other); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      DestroyAll();
      FreeHeap();
      MoveFrom(&other);
    }
    return *this;
  }

  /// Assignment from the std types the edge formats and tests use.
  SmallVector& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }
  SmallVector& operator=(const std::vector<T>& other) {
    assign(other.begin(), other.end());
    return *this;
  }

  ~SmallVector() {
    DestroyAll();
    FreeHeap();
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const { return const_reverse_iterator(end()); }
  const_reverse_iterator rend() const { return const_reverse_iterator(begin()); }
  T* data() { return data_; }
  const T* data() const { return data_; }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  /// True while the elements still live in the inline slots (tests, benches).
  bool is_inline() const { return data_ == InlineSlots(); }

  T& operator[](size_t i) {
    LOCAWARE_CHECK_LT(i, size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    LOCAWARE_CHECK_LT(i, size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void clear() {
    DestroyAll();
    size_ = 0;
  }

  void reserve(size_t want) {
    if (want > capacity_) Grow(want);
  }

  /// Shrinks (destroying the tail) or grows (value-initializing) to
  /// `new_size`, std::vector-style.
  void resize(size_t new_size) {
    if (new_size < size_) {
      if constexpr (!std::is_trivially_destructible_v<T>) {
        for (size_t i = new_size; i < size_; ++i) data_[i].~T();
      }
    } else {
      if (new_size > capacity_) Grow(new_size);
      for (size_t i = size_; i < new_size; ++i) {
        ::new (static_cast<void*>(data_ + i)) T();
      }
    }
    size_ = new_size;
  }

  void push_back(const T& value) {
    // Copy first: `value` may alias an element of this vector, and Grow
    // frees the old buffer (std::vector guarantees this pattern works).
    T copy = value;
    if (size_ == capacity_) Grow(size_ + 1);
    ::new (static_cast<void*>(data_ + size_)) T(std::move(copy));
    ++size_;
  }

  void push_back(T&& value) {
    // Move into a local first for the same aliasing reason as the copy
    // overload (moving out of an element this vector owns must be safe).
    T moved = std::move(value);
    if (size_ == capacity_) Grow(size_ + 1);
    ::new (static_cast<void*>(data_ + size_)) T(std::move(moved));
    ++size_;
  }

  void pop_back() {
    LOCAWARE_CHECK_GT(size_, 0u);
    --size_;
    data_[size_].~T();
  }

  /// Inserts `value` before `pos`, shifting the tail up.
  T* insert(T* pos, const T& value) {
    LOCAWARE_CHECK(pos >= begin() && pos <= end());
    const size_t at = static_cast<size_t>(pos - data_);
    // Copy first: `value` may alias an element whose slot Grow frees or the
    // tail shift overwrites (std::vector guarantees this pattern works).
    T copy = value;
    if (size_ == capacity_) Grow(size_ + 1);  // invalidates pos; reindex below
    if constexpr (std::is_trivially_copyable_v<T>) {
      std::memmove(data_ + at + 1, data_ + at, (size_ - at) * sizeof(T));
    } else if (at < size_) {
      // Shift [at, size_) up one slot: move-construct into the uninitialized
      // slot past the tail, then move-assign the rest down-to-up.
      ::new (static_cast<void*>(data_ + size_)) T(std::move(data_[size_ - 1]));
      for (size_t i = size_ - 1; i > at; --i) data_[i] = std::move(data_[i - 1]);
      data_[at].~T();
    }
    ::new (static_cast<void*>(data_ + at)) T(std::move(copy));
    ++size_;
    return data_ + at;
  }

  /// Removes the element at `pos`; returns the iterator past the removal.
  T* erase(T* pos) { return erase(pos, pos + 1); }

  /// Removes [first, last); returns the iterator past the removal.
  T* erase(T* first, T* last) {
    LOCAWARE_CHECK(begin() <= first && first <= last && last <= end());
    const size_t removed = static_cast<size_t>(last - first);
    if constexpr (std::is_trivially_copyable_v<T>) {
      std::memmove(first, last, static_cast<size_t>(end() - last) * sizeof(T));
    } else {
      T* out = std::move(last, end(), first);  // move-assign tail down
      for (T* p = out; p != end(); ++p) p->~T();
    }
    size_ -= removed;
    return first;
  }

  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  /// Copy out as a std::vector (edge formats and reports stay on std types).
  std::vector<T> ToVector() const { return std::vector<T>(begin(), end()); }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  /// std::vector comparison keeps call sites and tests type-agnostic.
  friend bool operator==(const SmallVector& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<T>& a, const SmallVector& b) {
    return b == a;
  }

 private:
  T* InlineSlots() { return reinterpret_cast<T*>(inline_storage_); }
  const T* InlineSlots() const { return reinterpret_cast<const T*>(inline_storage_); }

  /// Relocates the live elements into `dst` (raw storage): memcpy for
  /// trivial T, move-construct + destroy-source otherwise.
  void RelocateInto(T* dst) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      std::memcpy(dst, data_, size_ * sizeof(T));
    } else {
      for (size_t i = 0; i < size_; ++i) {
        ::new (static_cast<void*>(dst + i)) T(std::move(data_[i]));
        data_[i].~T();
      }
    }
  }

  void DestroyAll() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (size_t i = 0; i < size_; ++i) data_[i].~T();
    }
  }

  void Grow(size_t want) {
    size_t next = capacity_ * 2;
    if (next < want) next = want;
    T* heap = static_cast<T*>(::operator new(next * sizeof(T)));
    RelocateInto(heap);
    FreeHeap();
    data_ = heap;
    capacity_ = next;
  }

  void FreeHeap() {
    if (!is_inline()) ::operator delete(data_, capacity_ * sizeof(T));
  }

  /// Steals `other`'s heap buffer, or relocates its inline payload; leaves
  /// `other` empty and inline either way.
  void MoveFrom(SmallVector* other) {
    if (other->is_inline()) {
      data_ = InlineSlots();
      capacity_ = N;
      size_ = other->size_;
      other->RelocateInto(data_);
    } else {
      data_ = other->data_;
      capacity_ = other->capacity_;
      size_ = other->size_;
      other->data_ = other->InlineSlots();
      other->capacity_ = N;
    }
    other->size_ = 0;
  }

  T* data_ = InlineSlots();
  size_t size_ = 0;
  size_t capacity_ = N;
  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
};

}  // namespace locaware
