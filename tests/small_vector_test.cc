// SmallVector: the inline-until-N storage under the response index's
// keyword and provider lists. The interesting transitions are the
// inline->heap spill (and that everything survives it) and move semantics
// in both storage states.
#include "common/small_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace locaware {
namespace {

using Vec = SmallVector<uint32_t, 4>;

TEST(SmallVectorTest, StaysInlineUpToCapacityThenSpills) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_inline());
  for (uint32_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);  // spill
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVectorTest, InsertAtFrontAndBoundedPopModelProviderLists) {
  // The response index's provider discipline: insert most-recent first, pop
  // the oldest past the cap — all inside the inline slots.
  Vec v;
  for (uint32_t i = 0; i < 4; ++i) {
    v.insert(v.begin(), i);
    if (v.size() > 3) v.pop_back();
  }
  EXPECT_TRUE(v.is_inline());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 3u);
  EXPECT_EQ(v[1], 2u);
  EXPECT_EQ(v[2], 1u);
}

TEST(SmallVectorTest, InsertInMiddleAcrossSpillKeepsOrder) {
  Vec v{0, 1, 3, 4};
  v.insert(v.begin() + 2, 2);  // insertion is itself the spill trigger
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(SmallVectorTest, SelfReferencingPushAndInsertAreSafe) {
  // std::vector guarantees v.push_back(v[0]) works; so do we — the value is
  // copied out before growth frees the buffer or the tail shift overwrites
  // its slot.
  Vec v{1, 2, 3, 4};  // full inline: the push below is the spill itself
  v.push_back(v[0]);
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 2, 3, 4, 1}));
  v.insert(v.begin(), v[2]);  // aliases a slot the memmove shifts
  EXPECT_EQ(v, (std::vector<uint32_t>{3, 1, 2, 3, 4, 1}));
  v.push_back(v.back());  // heap-state growth path
  EXPECT_EQ(v.back(), 1u);
}

TEST(SmallVectorTest, EraseSingleAndRange) {
  Vec v{1, 2, 3, 4};
  auto it = v.erase(v.begin() + 1);
  EXPECT_EQ(*it, 3u);
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 3, 4}));
  v.erase(v.begin(), v.begin() + 2);
  EXPECT_EQ(v, (std::vector<uint32_t>{4}));
  v.erase(v.begin());
  EXPECT_TRUE(v.empty());
}

TEST(SmallVectorTest, MoveStealsHeapAndCopiesInline) {
  Vec inline_src{1, 2};
  Vec from_inline = std::move(inline_src);
  EXPECT_TRUE(from_inline.is_inline());
  EXPECT_EQ(from_inline, (std::vector<uint32_t>{1, 2}));
  EXPECT_TRUE(inline_src.empty());

  Vec heap_src{1, 2, 3, 4, 5, 6};
  ASSERT_FALSE(heap_src.is_inline());
  const uint32_t* heap_data = heap_src.data();
  Vec from_heap = std::move(heap_src);
  EXPECT_EQ(from_heap.data(), heap_data);  // buffer stolen, not copied
  EXPECT_EQ(from_heap, (std::vector<uint32_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(heap_src.empty());
  EXPECT_TRUE(heap_src.is_inline());  // reusable after the steal
  heap_src.push_back(9);
  EXPECT_EQ(heap_src, (std::vector<uint32_t>{9}));
}

TEST(SmallVectorTest, CopyAndAssignAcrossStorageStates) {
  Vec small{1, 2};
  Vec big{1, 2, 3, 4, 5};
  Vec copy = big;
  EXPECT_EQ(copy, big);
  EXPECT_NE(copy.data(), big.data());  // a copy allocates its own buffer
  copy = small;  // shrink a heap vector back to inline contents
  EXPECT_EQ(copy, small);
  Vec grown = small;
  grown = big;
  EXPECT_EQ(grown, big);
}

TEST(SmallVectorTest, ClearKeepsCapacityForReuse) {
  // GoOffline clears adjacency rows but peers rejoin: the spilled buffer
  // must survive the clear and absorb the re-fill without reallocating.
  Vec v;
  for (uint32_t i = 0; i < 32; ++i) v.push_back(i);
  ASSERT_FALSE(v.is_inline());
  const uint32_t* buffer = v.data();
  const size_t capacity = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), capacity);
  for (uint32_t i = 0; i < 32; ++i) v.push_back(i);
  EXPECT_EQ(v.data(), buffer);
  EXPECT_EQ(v.capacity(), capacity);
}

TEST(SmallVectorTest, ComparesAgainstStdVector) {
  Vec v{1, 2, 3};
  EXPECT_TRUE(v == (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE((std::vector<uint32_t>{1, 2, 3}) == v);
  EXPECT_FALSE(v == (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(v.ToVector(), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(SmallVectorTest, AssignFromStdVectorAndInitializerList) {
  // Message construction sites (bloom deltas, trace decode) assign whole
  // std::vectors into SmallVector payload fields.
  Vec v;
  v = std::vector<uint32_t>{7, 8, 9, 10, 11};  // spills
  EXPECT_EQ(v, (std::vector<uint32_t>{7, 8, 9, 10, 11}));
  v = {1, 2};  // shrink back over the heap buffer
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 2}));
}

TEST(SmallVectorTest, ResizeShrinksAndValueInitializesGrowth) {
  Vec v{1, 2, 3};
  v.resize(1);
  EXPECT_EQ(v, (std::vector<uint32_t>{1}));
  v.resize(6);  // grows past inline capacity, new slots value-initialized
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 0, 0, 0, 0, 0}));
}

TEST(SmallVectorTest, ReverseIterationMatchesForward) {
  Vec v{1, 2, 3};
  std::vector<uint32_t> reversed(v.rbegin(), v.rend());
  EXPECT_EQ(reversed, (std::vector<uint32_t>{3, 2, 1}));
}

// --- non-trivially-copyable elements ----------------------------------------
// The message payloads hold structs that themselves contain SmallVectors
// (ResponseRecord: a ProviderVec inside a RecordVec). Every relocation path
// — growth, container moves, insert shifts, erase compaction — must run real
// move constructors and destructors instead of memcpy.

/// Element with identity: tracks construction/destruction balance and keeps
/// a nested SmallVector so relocation exercises the recursive case.
struct Tracked {
  static inline int live = 0;
  uint32_t id = 0;
  SmallVector<uint32_t, 2> payload;

  Tracked() { ++live; }
  explicit Tracked(uint32_t i) : id(i) {
    payload = {i, i + 1, i + 2};  // spilled: relocation must carry the heap
    ++live;
  }
  Tracked(const Tracked& other) : id(other.id), payload(other.payload) { ++live; }
  Tracked(Tracked&& other) noexcept
      : id(other.id), payload(std::move(other.payload)) {
    ++live;
  }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) noexcept = default;
  ~Tracked() { --live; }

  friend bool operator==(const Tracked& a, const Tracked& b) {
    return a.id == b.id && a.payload == b.payload;
  }
};

using TrackedVec = SmallVector<Tracked, 2>;

TEST(SmallVectorNonTrivialTest, SpillRunsMovesAndBalancesLifetimes) {
  ASSERT_EQ(Tracked::live, 0);
  {
    TrackedVec v;
    for (uint32_t i = 0; i < 5; ++i) v.push_back(Tracked(i));  // spills at 3
    EXPECT_FALSE(v.is_inline());
    ASSERT_EQ(v.size(), 5u);
    EXPECT_EQ(Tracked::live, 5);
    for (uint32_t i = 0; i < 5; ++i) {
      EXPECT_EQ(v[i].id, i);
      EXPECT_EQ(v[i].payload, (std::vector<uint32_t>{i, i + 1, i + 2}));
    }
  }
  EXPECT_EQ(Tracked::live, 0);  // destructors ran for every element, once
}

TEST(SmallVectorNonTrivialTest, MoveProvenanceInBothStorageStates) {
  {
    TrackedVec inline_src;
    inline_src.push_back(Tracked(1));
    TrackedVec from_inline = std::move(inline_src);
    EXPECT_TRUE(from_inline.is_inline());
    EXPECT_TRUE(inline_src.empty());
    ASSERT_EQ(from_inline.size(), 1u);
    EXPECT_EQ(from_inline[0], Tracked(1));

    TrackedVec heap_src;
    for (uint32_t i = 0; i < 4; ++i) heap_src.push_back(Tracked(i));
    const Tracked* heap_data = heap_src.data();
    TrackedVec from_heap = std::move(heap_src);
    EXPECT_EQ(from_heap.data(), heap_data);  // buffer stolen, elements untouched
    EXPECT_TRUE(heap_src.empty());
    EXPECT_TRUE(heap_src.is_inline());
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallVectorNonTrivialTest, InsertEraseAndClearKeepLifetimesExact) {
  {
    TrackedVec v;
    v.push_back(Tracked(1));
    v.push_back(Tracked(3));
    v.insert(v.begin() + 1, Tracked(2));  // spill + middle shift, non-trivial
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0].id, 1u);
    EXPECT_EQ(v[1].id, 2u);
    EXPECT_EQ(v[2].id, 3u);
    v.erase(v.begin());  // move-assign compaction + tail destroy
    EXPECT_EQ(v[0].id, 2u);
    EXPECT_EQ(Tracked::live, 2);
    v.clear();
    EXPECT_EQ(Tracked::live, 0);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallVectorNonTrivialTest, SelfAliasingPushBackSurvivesGrowth) {
  TrackedVec v;
  v.push_back(Tracked(1));
  v.push_back(Tracked(2));
  v.push_back(v[0]);  // the push is the spill: value copied out before Grow
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], v[0]);
  EXPECT_EQ(v[2].payload, (std::vector<uint32_t>{1, 2, 3}));
}

}  // namespace
}  // namespace locaware
