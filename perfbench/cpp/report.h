// Result collection for one benchmark run: named metrics with units, the
// correctness verdict, and the human-readable lines printed before the
// machine-readable summary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Median and quartiles of a wall-clock sample (Python's
/// statistics.quantiles(n=4) "exclusive" method, so the numbers printed here
/// match what an external analysis of repeated runs would compute).
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline double quantile_exclusive(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  if (n == 1) return sorted[0];
  const double pos = p * static_cast<double>(n + 1);  // 1-based rank
  if (pos <= 1.0) return sorted.front();
  if (pos >= static_cast<double>(n)) return sorted.back();
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1]);
}

inline Spread spread_of(std::vector<double> v) {
  Spread s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  s.q1 = quantile_exclusive(v, 0.25);
  s.q3 = quantile_exclusive(v, 0.75);
  return s;
}

class Report {
 public:
  /// End-to-end metric (printed with --trace 0).
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = Metric{value, unit};
  }
  /// Per-layer metric (printed with --trace 1).
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = Metric{value, unit};
  }
  /// A line of the human-readable report.
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// A failed correctness check; the run exits non-zero without numbers.
  void fail(const std::string& why) { failures_.push_back(why); }

  void count_requests(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  [[nodiscard]] const std::map<std::string, Metric>& e2e() const { return e2e_; }
  [[nodiscard]] const std::map<std::string, Metric>& layers() const { return layer_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process, in MB (VmHWM).
double peak_rss_mb();

/// Seconds on the steady clock since an arbitrary origin.
double now_s();

}  // namespace perfbench
