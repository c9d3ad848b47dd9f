#include "net/topology.h"

#include <gtest/gtest.h>

namespace domino::net {
namespace {

TEST(Topology, GlobeMatchesPaperTable1) {
  const Topology t = Topology::globe();
  EXPECT_EQ(t.size(), 6u);
  // Spot checks against Table 1.
  EXPECT_EQ(t.rtt(t.index_of("VA"), t.index_of("WA")), milliseconds(67));
  EXPECT_EQ(t.rtt(t.index_of("VA"), t.index_of("NSW")), milliseconds(196));
  EXPECT_EQ(t.rtt(t.index_of("WA"), t.index_of("PR")), milliseconds(136));
  EXPECT_EQ(t.rtt(t.index_of("PR"), t.index_of("NSW")), milliseconds(234));
  EXPECT_EQ(t.rtt(t.index_of("SG"), t.index_of("HK")), milliseconds(35));
}

TEST(Topology, NorthAmericaMatchesPaperTable4) {
  const Topology t = Topology::north_america();
  EXPECT_EQ(t.size(), 9u);
  EXPECT_EQ(t.rtt(t.index_of("VA"), t.index_of("TX")), milliseconds(27));
  EXPECT_EQ(t.rtt(t.index_of("VA"), t.index_of("WA")), milliseconds(67));
  EXPECT_EQ(t.rtt(t.index_of("IA"), t.index_of("IL")), milliseconds(8));
  EXPECT_EQ(t.rtt(t.index_of("QC"), t.index_of("TRT")), milliseconds(11));
  EXPECT_EQ(t.rtt(t.index_of("CA"), t.index_of("WA")), milliseconds(23));
}

TEST(Topology, Symmetric) {
  const Topology t = Topology::globe();
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::size_t j = 0; j < t.size(); ++j) {
      EXPECT_EQ(t.rtt(i, j), t.rtt(j, i));
    }
  }
}

TEST(Topology, IntraDcRttIsSmall) {
  const Topology t = Topology::globe();
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.rtt(i, i), microseconds(500));
  }
}

TEST(Topology, OwdIsHalfRtt) {
  const Topology t = Topology::globe();
  EXPECT_EQ(t.owd(0, 1) * 2, t.rtt(0, 1));
}

TEST(Topology, UnknownNameThrows) {
  const Topology t = Topology::globe();
  EXPECT_THROW(static_cast<void>(t.index_of("MOON")), std::out_of_range);
}

TEST(Topology, BadIndexThrows) {
  const Topology t = Topology::globe();
  EXPECT_THROW(static_cast<void>(t.rtt(0, 99)), std::out_of_range);
}

TEST(Topology, CustomConstructionValidates) {
  EXPECT_THROW(Topology({"A", "B"}, {{0.0}}), std::invalid_argument);
  EXPECT_THROW(Topology({"A"}, {{0.0, 1.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace domino::net
