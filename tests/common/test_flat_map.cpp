#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "statemachine/workload.h"

namespace domino {
namespace {

/// Every allocation in this test binary, so a test can see which keys go
/// to the heap.
std::size_t g_allocations = 0;

}  // namespace
}  // namespace domino

// A counting replacement of the global allocation functions. GCC cannot
// tell that this operator delete frees what this operator new got from
// malloc, and warns wherever it inlines the pair.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++domino::g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace domino {
namespace {

TEST(InlineString, FifteenBytesInlineSixteenOnHeap) {
  const std::string fifteen(15, 'a');
  const std::string sixteen(16, 'b');
  const InlineString a{fifteen};
  const InlineString b{sixteen};
  EXPECT_FALSE(a.on_heap());
  EXPECT_TRUE(b.on_heap());
  EXPECT_EQ(a.view(), fifteen);
  EXPECT_EQ(b.view(), sixteen);
  EXPECT_TRUE(a == fifteen);
  EXPECT_FALSE(a == sixteen);
  EXPECT_TRUE(b == sixteen);
  EXPECT_FALSE(b == std::string(16, 'c'));
}

TEST(InlineString, EmptyAndEmbeddedNulAreOrdinaryBytes) {
  const InlineString empty;
  EXPECT_EQ(empty.view(), "");
  EXPECT_TRUE(empty == "");
  const std::string nul("a\0b", 3);
  const InlineString s{nul};
  EXPECT_EQ(s.view(), nul);
  EXPECT_FALSE(s == "a");
}

TEST(InlineString, AssignCrossesTheInlineLimitBothWays) {
  const std::string long_a(40, 'x');
  const std::string long_b(17, 'y');
  InlineString s{"short"};
  s.assign(long_a);  // inline -> heap
  EXPECT_TRUE(s.on_heap());
  EXPECT_EQ(s.view(), long_a);
  s.assign(long_b);  // heap -> heap, reusing the allocation
  EXPECT_TRUE(s.on_heap());
  EXPECT_EQ(s.view(), long_b);
  s.assign("tiny");  // heap -> inline frees the heap string
  EXPECT_FALSE(s.on_heap());
  EXPECT_EQ(s.view(), "tiny");
}

TEST(InlineString, CopyIsDeepAndMoveTransfersTheHeapString) {
  const std::string text(30, 'z');
  InlineString a{text};
  InlineString copy = a;
  copy.assign(std::string(30, 'w'));
  EXPECT_EQ(a.view(), text);  // the copy owns its own heap string
  InlineString moved = std::move(a);
  EXPECT_EQ(moved.view(), text);
  a = InlineString{"again"};  // a moved-from string stays assignable
  EXPECT_EQ(a.view(), "again");
  moved = copy;
  EXPECT_EQ(moved.view(), std::string(30, 'w'));
}

struct Writer {
  std::uint64_t id = 0;
  std::uint64_t seq = 0;
};

TEST(FlatStringMap, EmptyMapAllocatesNothing) {
  FlatStringMap<Writer> m;
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find("k"), nullptr);
  EXPECT_EQ(m.capacity(), 0u);
}

TEST(FlatStringMap, TryEmplaceInsertsValueInitialisedOnce) {
  FlatStringMap<Writer> m;
  auto [w, fresh] = m.try_emplace("key");
  ASSERT_TRUE(fresh);
  EXPECT_EQ(w->id, 0u);
  EXPECT_EQ(w->seq, 0u);
  *w = {7, 3};
  auto [again, fresh_again] = m.try_emplace("key");
  EXPECT_FALSE(fresh_again);
  EXPECT_EQ(again, w);
  EXPECT_EQ(again->seq, 3u);
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find("key"), nullptr);
  EXPECT_EQ(m.find("key")->id, 7u);
  EXPECT_EQ(m.find("kez"), nullptr);
}

TEST(FlatStringMap, GrowsPastSevenEighthsByDoubling) {
  FlatStringMap<Writer> m;
  for (std::uint64_t i = 0; i < 14; ++i) m.try_emplace("k" + std::to_string(i));
  EXPECT_EQ(m.capacity(), 16u);  // 14/16 = 7/8
  m.try_emplace("k0");           // present: no growth at the limit
  EXPECT_EQ(m.capacity(), 16u);
  m.try_emplace("k14");
  EXPECT_EQ(m.capacity(), 32u);
  for (std::uint64_t i = 15; i < 1000; ++i) m.try_emplace("k" + std::to_string(i));
  EXPECT_EQ(m.capacity(), 2048u);  // 1000 > 7/8 of 1024
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(m.find("k" + std::to_string(i)), nullptr) << i;
  }
  m.reserve(1793);  // 1793 > 7/8 of 2048
  EXPECT_EQ(m.capacity(), 4096u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find("k1"), nullptr);
}

TEST(FlatStringMap, LongKeysSurviveGrowthCopyAndMove) {
  FlatStringMap<Writer> m;
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < 200; ++i) {
    keys.push_back(std::string(i % 40, 'p') + std::to_string(i));
    m.try_emplace(keys.back()).first->id = i;
  }
  FlatStringMap<Writer> copy = m;
  FlatStringMap<Writer> moved = std::move(m);
  EXPECT_EQ(m.size(), 0u);  // a moved-from map is empty
  EXPECT_EQ(m.find(keys[0]), nullptr);
  for (std::uint64_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(copy.find(keys[i]), nullptr);
    ASSERT_NE(moved.find(keys[i]), nullptr);
    EXPECT_EQ(copy.find(keys[i])->id, i);
    EXPECT_EQ(moved.find(keys[i])->id, i);
  }
  std::size_t visited = 0;
  moved.for_each([&](std::string_view key, const Writer& w) {
    EXPECT_EQ(key, keys[w.id]);
    ++visited;
  });
  EXPECT_EQ(visited, keys.size());
  // Assignment frees the keys a map held, and a cleared map frees its own
  // and starts over; under ASan a leaked, double-freed or dangling heap
  // key fails here.
  m.try_emplace(keys[199]);
  m = copy;
  EXPECT_EQ(m.size(), keys.size());
  copy.clear();
  EXPECT_EQ(copy.find(keys[199]), nullptr);
  copy.try_emplace(keys[199]).first->id = 7;
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(m.find(keys[199])->id, 199u);
  EXPECT_EQ(moved.find(keys[199])->id, 199u);
}

TEST(FlatStringMap, EightByteKeysStayInlineNineGoToTheHeap) {
  FlatStringMap<Writer> m;
  m.reserve(8);
  const std::size_t before = g_allocations;
  m.try_emplace("");
  m.try_emplace("8bytekey");
  EXPECT_EQ(g_allocations, before);  // both keys live in their slot's word
  const std::string nine = "9byte-key";
  m.try_emplace(nine);
  EXPECT_EQ(g_allocations, before + 1);  // one std::string for the long key
  m.try_emplace(nine);
  (void)m.find(nine);
  EXPECT_EQ(g_allocations, before + 1);  // finding it allocates nothing
  ASSERT_NE(m.find("8bytekey"), nullptr);
  ASSERT_NE(m.find(nine), nullptr);
  EXPECT_EQ(m.find("8bytekez"), nullptr);
  EXPECT_EQ(m.find("9byte-kez"), nullptr);
  EXPECT_EQ(m.size(), 3u);
}

TEST(FlatStringMap, ZeroPaddingDoesNotMergeKeysThatDifferInLength) {
  // "ab", "ab\0" and "ab\0\0" pad to one word; so do "" and "\0".
  const std::vector<std::string> keys = {"ab", std::string("ab\0", 3), std::string("ab\0\0", 4),
                                         "", std::string(1, '\0'), std::string(8, '\0')};
  FlatStringMap<Writer> m;
  for (std::uint64_t i = 0; i < keys.size(); ++i) {
    auto [w, fresh] = m.try_emplace(keys[i]);
    EXPECT_TRUE(fresh) << i;
    w->id = i;
  }
  EXPECT_EQ(m.size(), keys.size());
  for (std::uint64_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(m.find(keys[i]), nullptr) << i;
    EXPECT_EQ(m.find(keys[i])->id, i);
  }
  m.for_each([&](std::string_view key, const Writer& w) { EXPECT_EQ(key, keys[w.id]); });
  EXPECT_EQ(m.find(std::string("ab\0\0\0", 5)), nullptr);
}

/// FNV-1a over each entry's key bytes and value, in for_each order.
std::uint64_t order_digest(const FlatStringMap<std::uint64_t>& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  m.for_each([&](std::string_view key, std::uint64_t value) {
    for (const char c : key) mix(static_cast<unsigned char>(c));
    for (int shift = 0; shift < 64; shift += 8) mix(static_cast<unsigned char>(value >> shift));
  });
  return h;
}

TEST(FlatStringMap, WorkloadKeyOrderMatchesRecordedDigest) {
  // 60,000 draws of the paper's workload (Zipf over 1 M 8-digit keys),
  // each key holding its first draw's index. The slot order, which
  // catch-up snapshots follow, is pinned to the digest recorded with 16 B
  // inline keys.
  sm::WorkloadGenerator workload({}, 1);
  FlatStringMap<std::uint64_t> m;
  for (std::uint64_t i = 0; i < 60'000; ++i) {
    auto [value, fresh] = m.try_emplace(workload.next(NodeId{1}).key);
    if (fresh) *value = i;
  }
  EXPECT_EQ(m.size(), 46'365u);
  EXPECT_EQ(m.capacity(), 65'536u);
  EXPECT_EQ(order_digest(m), 0xbd2fad2f1b1618d8ULL);
}

}  // namespace
}  // namespace domino
