// Empirical WAN delay traces: timestamped per-directed-link one-way-delay
// samples, the data product the paper builds everything on (Sections 3 and
// 7 measure 24-hour OWD/RTT traces between real datacenters and show their
// short-window stability).
//
// A DelayTrace holds one or more directed links, each a time-ordered vector
// of (timestamp, OWD) samples, and round-trips through a simple CSV:
//
//   # optional comment lines
//   time_ms,from,to,owd_ms
//   0.000000,VA,WA,33.512000
//   10.000000,VA,WA,33.498000
//   ...
//
// Link endpoints are datacenter names (net::Topology names them the same
// way), times are milliseconds since the trace epoch with nanosecond
// resolution, and delays are milliseconds. Numbers take the form the
// writer prints (std::from_chars' general format): no leading whitespace,
// '+' sign or hex floats. Parsing validates everything the
// replay layer depends on — per-link timestamp monotonicity, finite
// non-negative delays, a sane delay ceiling — and guards allocations
// against hostile row/link counts (mirroring the wire-layer length-prefix
// guards in recovery/messages.h).
//
// Ingestion is one streaming pass. load() reads each file in kReadChunk
// pieces into a buffer that holds one chunk plus the partial line carried
// over from the last one, so a file is never held whole, and parse_csv()
// runs the same line parser over its text. A number in the writer's form
// (an optional '-', 1-9 integer digits, optionally '.' and 1-6 fraction
// digits) is converted exactly in fixed point; any other syntax goes
// through std::from_chars and llround, which give the same nanoseconds on
// the writer's form, so exponents, errors and their messages are the
// general path's. Each link's vector is trimmed to its size once the input
// is read.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace domino::wan {

/// One OWD observation on a directed link.
struct TraceSample {
  TimePoint at;  // when the probed message was sent, trace-relative
  Duration owd;  // measured one-way delay

  friend bool operator==(const TraceSample&, const TraceSample&) = default;
};

/// Ingestion failure: malformed row, constraint violation, or an input that
/// would force an unreasonable allocation. The message carries the 1-based
/// line number when the failure is tied to one.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// Hard caps applied while parsing untrusted trace files. The defaults
/// admit a 24 h trace probed every 10 ms on a handful of links while
/// rejecting allocation bombs (a forged row count cannot make us reserve
/// unbounded memory: rows are appended one by one and counted).
struct TraceLimits {
  std::size_t max_rows = 16'000'000;   // total samples across all links
  std::size_t max_links = 4'096;       // distinct directed pairs
  std::size_t max_name_length = 64;    // datacenter name bytes
  Duration max_owd = seconds(60);      // reject absurd delays
  Duration max_time = seconds(200'000);  // > 2 days of trace
};

/// An empirical delay trace over directed links. Samples per link are kept
/// in insertion order and must be added with non-decreasing timestamps;
/// links iterate in first-appearance order so every export is
/// deterministic.
class DelayTrace {
 public:
  struct LinkKey {
    std::string from;
    std::string to;

    friend bool operator==(const LinkKey&, const LinkKey&) = default;
  };

  /// load() reads a file in pieces of this many bytes.
  static constexpr std::size_t kReadChunk = std::size_t{1} << 16;

  DelayTrace() = default;
  explicit DelayTrace(TraceLimits limits) : limits_(limits) {}

  /// Append one sample; creates the link on first use. Throws TraceError on
  /// a non-monotone timestamp, a non-finite/negative/oversized delay, or a
  /// breached limit.
  void add(std::string_view from, std::string_view to, TimePoint at, Duration owd);

  /// Move a whole pre-built sample vector in as one link (generator path).
  /// The samples must already be time-ordered and valid; this re-checks.
  void add_link(std::string_view from, std::string_view to,
                std::vector<TraceSample> samples);

  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] std::size_t total_samples() const { return total_samples_; }
  [[nodiscard]] const LinkKey& link(std::size_t i) const { return links_[i].key; }

  /// Samples of one directed link, shared so replay models can hold them
  /// without copying; null when the link is absent. The vector must not be
  /// mutated after models are constructed over it.
  [[nodiscard]] std::shared_ptr<const std::vector<TraceSample>> samples(
      std::string_view from, std::string_view to) const;
  [[nodiscard]] std::shared_ptr<const std::vector<TraceSample>> samples_at(
      std::size_t i) const {
    return links_[i].samples;
  }

  /// Last sample timestamp across all links (epoch for an empty trace).
  [[nodiscard]] TimePoint end_time() const { return end_time_; }

  /// Parse CSV text (format above). Rejects missing/unknown header, short
  /// or overlong rows, unparsable numbers, NaN/negative/oversized delays,
  /// per-link non-monotone timestamps, and row/link counts past `limits`.
  [[nodiscard]] static DelayTrace parse_csv(std::string_view text,
                                            const TraceLimits& limits = {});

  /// Load from one CSV file, or — when `path` names a directory — from
  /// every `*.csv` inside it, in sorted filename order (per-link samples
  /// must stay monotone across files; an error names the file and line).
  [[nodiscard]] static DelayTrace load(const std::string& path,
                                       const TraceLimits& limits = {});

  /// Deterministic CSV serialization; parse_csv(to_csv()) round-trips
  /// exactly (times and delays are printed at nanosecond resolution).
  [[nodiscard]] std::string to_csv() const;

 private:
  struct Link {
    LinkKey key;
    std::shared_ptr<std::vector<TraceSample>> samples;
  };

  /// The line parser for one input (defined in delay_trace.cpp).
  class CsvReader;

  Link& link_slot(std::string_view from, std::string_view to);
  void check_rows(std::size_t extra) const;
  void check_sample(const TraceSample& s) const;
  /// Append a checked sample to one link's samples (monotonicity is checked here).
  void append(std::vector<TraceSample>& samples, std::string_view from, std::string_view to,
              const TraceSample& s);
  /// Drop every link vector's growth slack once an input is read.
  void trim();

  TraceLimits limits_;
  std::vector<Link> links_;
  std::size_t total_samples_ = 0;
  TimePoint end_time_ = TimePoint::epoch();
};

}  // namespace domino::wan
