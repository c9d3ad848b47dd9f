// Zipfian key-selection, matching the paper's workload: "The requests
// select keys based on a Zipfian distribution, where the alpha value is
// 0.75" (Section 7.1; 0.95 in the high-contention runs of Figure 10b).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace domino {

/// Samples ranks in [0, n) with P(rank k) proportional to 1 / (k+1)^alpha.
///
/// Draws are those of inverse-CDF sampling over the full table
/// cdf[k] = (sum of the first k+1 terms) / total, with cdf[n-1] = 1.0, but
/// only every kStride-th running sum is kept: a sample binary-searches the
/// checkpoints for its block, then re-adds at most kStride terms inside it
/// with the same floating-point operations that built the full table, so
/// every draw is bit-identical to the full-table draw. O(log(n / kStride) +
/// kStride) per sample; ceil(n / kStride) + 1 doubles of memory. Every
/// generator with the same (n, alpha) shares one immutable table for the
/// life of the process, so constructing one after the first is cheap.
class ZipfGenerator {
 public:
  /// Ranks per checkpoint block.
  static constexpr std::uint64_t kStride = 16;

  ZipfGenerator(std::uint64_t n, double alpha);

  /// Draws one rank: rank(rng.next_double()).
  [[nodiscard]] std::uint64_t sample(Rng& rng) const { return rank(rng.next_double()); }

  /// The rank a uniform u in [0, 1) maps to: the first k with cdf[k] >= u.
  [[nodiscard]] std::uint64_t rank(double u) const;

  [[nodiscard]] std::uint64_t n() const { return n_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  /// The shared checkpoint table: table()[0] = 0, table()[b + 1] = the
  /// unnormalised running sum through block b's last rank; table().back()
  /// is the total.
  [[nodiscard]] const std::vector<double>& table() const { return *marks_; }

 private:
  std::uint64_t n_;
  double alpha_;
  std::shared_ptr<const std::vector<double>> marks_;
};

}  // namespace domino
