#include "common/ids.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace domino {
namespace {

TEST(NodeId, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, NodeId::invalid());
}

TEST(NodeId, ValueAndComparison) {
  EXPECT_TRUE(NodeId{3}.valid());
  EXPECT_LT(NodeId{1}, NodeId{2});
  EXPECT_EQ(NodeId{7}.value(), 7u);
  EXPECT_EQ(NodeId{7}.to_string(), "n7");
}

TEST(NodeId, HashableDistinct) {
  std::unordered_set<NodeId> set;
  for (std::uint32_t i = 0; i < 100; ++i) set.insert(NodeId{i});
  EXPECT_EQ(set.size(), 100u);
  EXPECT_TRUE(set.contains(NodeId{42}));
}

TEST(RequestId, OrderingLexicographic) {
  const RequestId a{NodeId{1}, 5};
  const RequestId b{NodeId{1}, 6};
  const RequestId c{NodeId{2}, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (RequestId{NodeId{1}, 5}));
}

TEST(RequestId, HashSpreads) {
  std::unordered_set<RequestId> set;
  for (std::uint32_t c = 0; c < 10; ++c) {
    for (std::uint64_t s = 0; s < 100; ++s) set.insert(RequestId{NodeId{c}, s});
  }
  EXPECT_EQ(set.size(), 1000u);
}

TEST(RequestId, ToStringFormat) {
  EXPECT_EQ((RequestId{NodeId{3}, 9}).to_string(), "n3#9");
}

}  // namespace
}  // namespace domino
