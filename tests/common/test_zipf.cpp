#include "common/zipf.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace domino {
namespace {

// 64-bit FNV-1a over the little-endian bytes of the first `count` samples.
std::uint64_t stream_digest(const ZipfGenerator& z, std::uint64_t seed, int count) {
  Rng rng(seed);
  std::uint64_t h = 14695981039346656037ULL;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t s = z.sample(rng);
    for (int b = 0; b < 8; ++b) {
      h ^= (s >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfGenerator(0, 0.75), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(10, -1.0), std::invalid_argument);
}

TEST(Zipf, SamplesWithinRange) {
  ZipfGenerator z(100, 0.75);
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(z.sample(rng), 100u);
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfGenerator z(10, 0.0);
  Rng rng(2);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
}

TEST(Zipf, SkewFavorsLowRanks) {
  ZipfGenerator z(1000, 0.95);
  Rng rng(3);
  std::vector<int> counts(1000, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[999] * 5);
}

TEST(Zipf, HigherAlphaIsMoreSkewed) {
  Rng rng_a(4), rng_b(4);
  ZipfGenerator mild(1000, 0.75), heavy(1000, 0.95);
  const int n = 50'000;
  int mild_top = 0, heavy_top = 0;
  for (int i = 0; i < n; ++i) {
    if (mild.sample(rng_a) == 0) ++mild_top;
    if (heavy.sample(rng_b) == 0) ++heavy_top;
  }
  EXPECT_GT(heavy_top, mild_top);
}

TEST(Zipf, RatioMatchesTheory) {
  // P(0)/P(1) should be 2^alpha.
  ZipfGenerator z(2, 1.0);
  Rng rng(5);
  int zero = 0;
  const int n = 300'000;
  for (int i = 0; i < n; ++i) {
    if (z.sample(rng) == 0) ++zero;
  }
  // P(0) = 1 / (1 + 1/2) = 2/3.
  EXPECT_NEAR(static_cast<double>(zero) / n, 2.0 / 3.0, 0.01);
}

TEST(Zipf, GoldenStreamsArePinned) {
  // Digests of the first 100,000 samples over the paper's 1 M keys, recorded
  // from the per-generator table build. Any change to how the table is built
  // or shared must leave every key stream bit-identical.
  const ZipfGenerator mild(1'000'000, 0.75);
  const ZipfGenerator heavy(1'000'000, 0.95);
  EXPECT_EQ(stream_digest(mild, 1, 100'000), 0xce8b483ee48c0cc3ULL);
  EXPECT_EQ(stream_digest(mild, 7, 100'000), 0xc2bca2934218e331ULL);
  EXPECT_EQ(stream_digest(heavy, 1, 100'000), 0xc89f9a5950d0023bULL);
  EXPECT_EQ(stream_digest(heavy, 7, 100'000), 0x9173435ded98f77dULL);
}

TEST(Zipf, EqualParametersShareOneTable) {
  const ZipfGenerator a(50'000, 0.75);
  const ZipfGenerator b(50'000, 0.75);
  const ZipfGenerator other_n(50'001, 0.75);
  const ZipfGenerator other_alpha(50'000, 0.95);
  EXPECT_EQ(&a.table(), &b.table());
  EXPECT_NE(&a.table(), &other_n.table());
  EXPECT_NE(&a.table(), &other_alpha.table());
  EXPECT_EQ(a.table().size(), 50'000u);
  EXPECT_EQ(other_n.table().size(), 50'001u);
  EXPECT_EQ(a.table().back(), 1.0);
}

TEST(Zipf, ConcurrentConstructionSharesOneTableAndStream) {
  constexpr int kThreads = 8;
  std::vector<const std::vector<double>*> tables(kThreads, nullptr);
  std::vector<std::uint64_t> digests(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &tables, &digests] {
      const ZipfGenerator z(1'000'000, 0.75);
      tables[t] = &z.table();
      digests[t] = stream_digest(z, 11, 10'000);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tables[t], tables[0]);
    EXPECT_EQ(digests[t], digests[0]);
  }
}

}  // namespace
}  // namespace domino
