#include "common/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace domino {
namespace {

constexpr std::uint64_t kStride = ZipfGenerator::kStride;

// The unnormalised weight of rank k. Building the checkpoints and scanning a
// block both add exactly these values in rank order, so a scan reproduces
// the running sums of the full table bit for bit.
double term(std::uint64_t k, double alpha) {
  return 1.0 / std::pow(static_cast<double>(k + 1), alpha);
}

std::vector<double> build_marks(std::uint64_t n, double alpha) {
  std::vector<double> marks;
  marks.reserve((n + kStride - 1) / kStride + 1);
  marks.push_back(0.0);
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += term(k, alpha);
    if ((k + 1) % kStride == 0 || k + 1 == n) marks.push_back(acc);
  }
  return marks;
}

// Process-wide cache of immutable tables, keyed by n and alpha's exact bit
// pattern. A run's clients all draw from the same few (n, alpha) pairs, so
// entries are never evicted. The table is built under the lock: concurrent
// constructors of the same pair wait for one build instead of racing.
std::shared_ptr<const std::vector<double>> shared_marks(std::uint64_t n, double alpha) {
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, std::uint64_t>,
                  std::shared_ptr<const std::vector<double>>>
      tables;
  const std::lock_guard<std::mutex> lock(mu);
  auto& table = tables[{n, std::bit_cast<std::uint64_t>(alpha)}];
  if (!table) table = std::make_shared<const std::vector<double>>(build_marks(n, alpha));
  return table;
}

}  // namespace

ZipfGenerator::ZipfGenerator(std::uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfGenerator: n must be > 0");
  if (alpha < 0) throw std::invalid_argument("ZipfGenerator: alpha must be >= 0");
  marks_ = shared_marks(n, alpha);
}

std::uint64_t ZipfGenerator::rank(double u) const {
  const std::vector<double>& marks = *marks_;
  const double total = marks.back();
  // First block whose end value reaches u. Block b ends at marks[b + 1] /
  // total, except the last block, which ends at 1.0 (the full table's
  // rounding guard) and so always qualifies.
  std::uint64_t lo = 0;
  std::uint64_t hi = marks.size() - 2;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (marks[mid + 1] / total < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // First rank in the block whose normalised running sum reaches u; the
  // block's last rank qualifies by the search above.
  const std::uint64_t last = std::min(n_, (lo + 1) * kStride) - 1;
  double acc = marks[lo];
  for (std::uint64_t k = lo * kStride; k < last; ++k) {
    acc += term(k, alpha_);
    if (acc / total >= u) return k;
  }
  return last;
}

}  // namespace domino
