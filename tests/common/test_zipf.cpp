#include "common/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

// The full inverse-CDF table the checkpoint table replaces, built the way
// the full-table sampler built it: cdf[k] = P(rank <= k).
std::vector<double> full_cdf(std::uint64_t n, double alpha) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf[k] = acc;
  }
  const double total = acc;
  for (double& v : cdf) v /= total;
  cdf.back() = 1.0;  // guard against rounding
  return cdf;
}

// The full-table sampler's rank for u.
std::uint64_t lower_bound_rank(const std::vector<double>& cdf, double u) {
  return static_cast<std::uint64_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

std::size_t checkpoint_count(std::uint64_t n) {
  return (n + ZipfGenerator::kStride - 1) / ZipfGenerator::kStride + 1;
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

TEST(Zipf, MatchesFullTableLowerBound) {
  // Sizes around the block boundaries: one block (1, 2, 15, 16), a last
  // block of one rank (17, 50001) and partial last blocks; alpha 0 makes
  // every term equal.
  for (const std::uint64_t n : {1, 2, 15, 16, 17, 40, 50, 100, 1000, 50001}) {
    for (const double alpha : {0.0, 0.75, 0.95, 1.0}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " alpha=" << alpha);
      const ZipfGenerator z(n, alpha);
      const std::vector<double> cdf = full_cdf(n, alpha);
      Rng rng(n * 31 + 7);
      Rng ref(n * 31 + 7);
      int mismatches = 0;
      for (int i = 0; i < 200'000; ++i) {
        if (z.sample(rng) != lower_bound_rank(cdf, ref.next_double())) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0);
      // Random draws almost never land within an ulp of a table entry, so
      // also probe each entry and its neighbouring doubles: a scan whose
      // running sums differ from the table's in the last bit fails here.
      int boundary_mismatches = 0;
      for (const double v : cdf) {
        for (const double u : {std::nextafter(v, 0.0), v, std::nextafter(v, 2.0)}) {
          if (u >= 1.0) continue;
          if (z.rank(u) != lower_bound_rank(cdf, u)) ++boundary_mismatches;
        }
      }
      EXPECT_EQ(boundary_mismatches, 0);
    }
  }
}

TEST(Zipf, EqualParametersShareOneTable) {
  const ZipfGenerator a(50'000, 0.75);
  const ZipfGenerator b(50'000, 0.75);
  const ZipfGenerator other_n(50'001, 0.75);
  const ZipfGenerator other_alpha(50'000, 0.95);
  EXPECT_EQ(&a.table(), &b.table());
  EXPECT_NE(&a.table(), &other_n.table());
  EXPECT_NE(&a.table(), &other_alpha.table());
  // One checkpoint per block plus the leading zero: the memory bound.
  EXPECT_EQ(a.table().size(), checkpoint_count(50'000));
  EXPECT_EQ(other_n.table().size(), checkpoint_count(50'001));
  EXPECT_EQ(a.table().front(), 0.0);
  // The last checkpoint is the total the full table normalised by.
  double total = 0.0;
  for (std::uint64_t k = 0; k < 50'000; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 0.75);
  }
  EXPECT_EQ(a.table().back(), total);
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
  // The paper's 1 M keys cost ceil(1 M / 16) + 1 doubles (0.48 MiB), not
  // the full table's 1 M (7.63 MiB).
  EXPECT_EQ(tables[0]->size(), checkpoint_count(1'000'000));
  EXPECT_EQ(tables[0]->size(), 62'501u);
}

}  // namespace
}  // namespace domino
