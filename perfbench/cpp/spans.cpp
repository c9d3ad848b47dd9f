#include "spans.h"

#include <cstdio>

#include "report.h"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(capacity), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanRecorder::begin(const char* name) {
  stack_.push_back(Open{next_id_++, name, now_ns(), 0});
}

void SpanRecorder::end() {
  const std::int64_t end_ns = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end_ns - open.start_ns;
  auto [it, inserted] = totals_.try_emplace(open.name);
  if (inserted) order_.push_back(it->first);
  it->second.count += 1;
  it->second.total_ns += duration;
  it->second.self_ns += duration - open.child_ns;
  std::uint32_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    parent = stack_.back().id;
  }
  if (stored_.size() < capacity_) {
    stored_.push_back(Stored{open.id, parent, open.name, open.start_ns, end_ns});
  } else {
    ++dropped_;
  }
}

const SpanRecorder::Totals& SpanRecorder::totals(std::string_view name) const {
  static const Totals kNone;
  const auto it = totals_.find(name);
  return it == totals_.end() ? kNone : it->second;
}

bool SpanRecorder::write(const std::string& path, const std::string& header_json,
                         const std::vector<std::string>& extra_lines) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  for (const Stored& s : stored_) {
    std::fprintf(f,
                 "{\"kind\":\"span\",\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.id, s.parent, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const std::string_view name : order_) {
    const Totals& t = totals_.at(name);
    std::fprintf(f,
                 "{\"kind\":\"total\",\"name\":\"%.*s\",\"count\":%llu,\"total_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(t.count), static_cast<long long>(t.total_ns),
                 static_cast<long long>(t.self_ns));
  }
  std::fprintf(f, "{\"kind\":\"dropped\",\"spans\":%llu}\n",
               static_cast<unsigned long long>(dropped_));
  for (const std::string& line : extra_lines) std::fprintf(f, "%s\n", line.c_str());
  return std::fclose(f) == 0;
}

void write_spans(Report& report, const SpanRecorder& spans, const std::string& path,
                 const std::string& header_json, const std::vector<std::string>& extra_lines) {
  if (path.empty()) return;
  if (spans.write(path, header_json, extra_lines)) {
    report.line("  spans written to %s", path.c_str());
  } else {
    report.line("  warning: could not write spans to %s", path.c_str());
  }
}

}  // namespace perfbench
