#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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
  EXPECT_FALSE(empty.vacant());
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
}

}  // namespace
}  // namespace domino
