// In-memory span recorder for the traced pass.
//
// A span has a name, a start, an end and the span that was open when it
// began (its parent). Self time is a span's duration minus the time its
// direct children cover; the recorder accumulates count, total and self
// time per span name online, so the totals stay exact even after the
// bounded store of individual spans fills. Spans are written out once, when
// the run ends. Span names must have static storage duration (string
// literals or message_type_name() results).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanRecorder(bool enabled, std::size_t capacity = std::size_t{1} << 18);

  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(const char* name);
  void end();

  [[nodiscard]] const Totals& totals(std::string_view name) const;

  /// Write a caller-supplied header object, every stored span, the per-name
  /// totals and then `extra_lines`, as JSON lines. Returns false when the
  /// file cannot be written.
  bool write(const std::string& path, const std::string& header_json,
             const std::vector<std::string>& extra_lines) const;

 private:
  struct Open {
    std::uint32_t id;
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Stored {
    std::uint32_t id;
    std::uint32_t parent;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point origin_;
  std::uint32_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Open> stack_;
  std::vector<Stored> stored_;
  std::unordered_map<std::string_view, Totals> totals_;
  std::vector<std::string_view> order_;  // first-seen order of names
};

class Report;

/// Write `spans` to `path` (when non-empty) and say where in the report.
void write_spans(Report& report, const SpanRecorder& spans, const std::string& path,
                 const std::string& header_json, const std::vector<std::string>& extra_lines);

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name) : recorder_(recorder) {
    if (recorder_.enabled()) recorder_.begin(name);
  }
  ~ScopedSpan() {
    if (recorder_.enabled()) recorder_.end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
};

}  // namespace perfbench
