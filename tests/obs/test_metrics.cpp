#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.h"

namespace domino::obs {
namespace {

TEST(Counter, Increments) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksValueAndHighWater) {
  Gauge g;
  g.set(5);
  g.update_max();
  g.set(2);
  g.update_max();
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 5);
  g.add(10);
  g.update_max();
  EXPECT_EQ(g.value(), 12);
  EXPECT_EQ(g.max(), 12);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::int64_t v = 0; v < 8; ++v) h.record(v);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(h.bucket_count(i), 1u);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 7);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5);
}

TEST(Histogram, PercentileWithinRelativeErrorBound) {
  Histogram h;
  // Values spread over five decades.
  std::vector<std::int64_t> values;
  for (std::int64_t v = 1; v <= 100000; v = v * 5 / 4 + 1) values.push_back(v);
  for (std::int64_t v : values) h.record(v);
  // Same nearest-rank convention as Histogram::percentile; the bucket
  // answer may overshoot the exact order statistic by at most one
  // sub-bucket width (12.5%), and never undershoots.
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(p / 100.0 * static_cast<double>(values.size()))));
    const std::int64_t exact = values[rank - 1];  // values are ascending
    const std::int64_t est = h.percentile(p);
    EXPECT_GE(est, exact) << "p" << p;
    EXPECT_LE(est, exact + exact / 8 + 1) << "p" << p;
  }
}

TEST(Histogram, PercentileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.percentile(50), 0);  // empty
  h.record(std::int64_t{1000});
  EXPECT_EQ(h.percentile(0), h.percentile(100));
  // p100 is clamped to the exact max, not the bucket bound.
  EXPECT_EQ(h.percentile(100), 1000);
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram h;
  h.record(std::int64_t{-5});
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.bucket_count(0), 1u);
}

TEST(Registry, FindOrCreateReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(reg.find_counter("x")->value(), 1u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("m");
  EXPECT_THROW((void)reg.gauge("m"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("m"), std::logic_error);
  EXPECT_EQ(reg.find_gauge("m"), nullptr);
  EXPECT_EQ(reg.find_histogram("m"), nullptr);
}

TEST(Registry, VisitInNameOrder) {
  MetricsRegistry reg;
  reg.counter("zeta");
  reg.gauge("alpha");
  reg.histogram("mid");
  std::vector<std::string> order;
  reg.visit([&](const std::string& name, const Counter*, const Gauge*, const Histogram*) {
    order.push_back(name);
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "alpha");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(order[2], "zeta");
}

TEST(Handles, NullHandlesAreSafeNoOps) {
  CounterHandle c;
  GaugeHandle g;
  HistogramHandle h;
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(g.enabled());
  EXPECT_FALSE(h.enabled());
  c.inc();
  g.set(5);
  g.add(1);
  h.record(std::int64_t{10});
  h.record(milliseconds(1));  // nothing to assert beyond "does not crash"
}

TEST(Handles, BoundHandlesForward) {
  MetricsRegistry reg;
  CounterHandle c{&reg.counter("c")};
  GaugeHandle g{&reg.gauge("g")};
  HistogramHandle h{&reg.histogram("h")};
  c.inc(3);
  g.set(9);
  g.set(4);
  h.record(milliseconds(2));
  EXPECT_EQ(reg.find_counter("c")->value(), 3u);
  EXPECT_EQ(reg.find_gauge("g")->value(), 4);
  EXPECT_EQ(reg.find_gauge("g")->max(), 9);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);
  EXPECT_EQ(reg.find_histogram("h")->max(), 2000000);
}

TEST(Handles, CounterHandlesKeepTheirOwnCount) {
  MetricsRegistry reg;
  CounterHandle a{&reg.counter("c")};
  CounterHandle b{&reg.counter("c")};
  CounterHandle unbound;
  a.inc(2);
  b.inc();
  unbound.inc(5);
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(unbound.value(), 5u);
  EXPECT_EQ(reg.find_counter("c")->value(), 3u);  // the sum over bound handles
}

TEST(Export, MetricsJsonIsDeterministic) {
  MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.gauge("a.depth").set(3);
  reg.histogram("c.lat").record(std::int64_t{1500});
  const std::string json = metrics_to_json(reg);
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"a.depth\""), std::string::npos);
  EXPECT_NE(json.find("\"c.lat\""), std::string::npos);
  // Name order: the gauge section lists a.depth, counters b.count, etc.;
  // re-exporting yields identical bytes.
  EXPECT_EQ(json, metrics_to_json(reg));
}

TEST(Appendf, AppendsLongResultsWhole) {
  const std::string field(590, 'x');
  std::string out = "[";
  appendf(out, "%s,%d", field.c_str(), 123456789);
  EXPECT_EQ(out.size(), 1u + 600u);
  EXPECT_EQ(out, "[" + field + ",123456789");
  appendf(out, "%s", "");  // an empty result appends nothing
  appendf(out, "]");
  EXPECT_EQ(out.back(), ']');
  EXPECT_EQ(out.size(), 602u);
}

}  // namespace
}  // namespace domino::obs
