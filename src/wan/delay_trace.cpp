#include "wan/delay_trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace domino::wan {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw TraceError("delay trace, line " + std::to_string(line) + ": " + what);
}

/// Millisecond value -> nanoseconds, with the finite/range checks every
/// numeric trace field needs.
std::int64_t parse_ms_field(std::string_view field, std::size_t line, const char* name) {
  if (field.empty()) fail(line, std::string(name) + " is empty");
  // from_chars rounds correctly, as strtod does, but takes no leading
  // whitespace, '+' or hex form.
  double ms = 0;
  const auto [end, ec] = std::from_chars(field.data(), field.data() + field.size(), ms);
  if (ec != std::errc{} || end != field.data() + field.size()) {
    fail(line, std::string(name) + " is not a number");
  }
  if (!std::isfinite(ms)) fail(line, std::string(name) + " is not finite");
  // llround keeps the CSV<->ns round trip exact at the printed resolution.
  const double ns = ms * 1e6;
  if (ns < -9.2e18 || ns > 9.2e18) fail(line, std::string(name) + " out of range");
  return std::llround(ns);
}

void check_order(std::string_view from, std::string_view to, TimePoint prev, TimePoint at) {
  if (at < prev) {
    throw TraceError("delay trace: non-monotone timestamps on link " + std::string(from) +
                     "->" + std::string(to));
  }
}

void append_ms(std::string& out, std::int64_t ns) {
  char buf[48];
  const std::int64_t ms = ns / 1'000'000;
  std::int64_t frac = ns % 1'000'000;
  if (frac < 0) frac = -frac;
  std::snprintf(buf, sizeof(buf), "%lld.%06lld", static_cast<long long>(ms),
                static_cast<long long>(frac));
  out += buf;
}

}  // namespace

DelayTrace::Link& DelayTrace::link_slot(std::string_view from, std::string_view to) {
  const auto is = [&](const Link& l) { return l.key.from == from && l.key.to == to; };
  if (last_link_ < links_.size() && is(links_[last_link_])) return links_[last_link_];
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (is(links_[i])) {
      last_link_ = i;
      return links_[i];
    }
  }
  if (from.empty() || to.empty()) throw TraceError("delay trace: empty endpoint name");
  if (from.size() > limits_.max_name_length || to.size() > limits_.max_name_length) {
    throw TraceError("delay trace: endpoint name longer than " +
                     std::to_string(limits_.max_name_length) + " bytes");
  }
  if (links_.size() >= limits_.max_links) {
    throw TraceError("delay trace: more than " + std::to_string(limits_.max_links) +
                     " directed links");
  }
  last_link_ = links_.size();
  links_.push_back(Link{LinkKey{std::string(from), std::string(to)},
                        std::make_shared<std::vector<TraceSample>>()});
  return links_.back();
}

void DelayTrace::check_rows(std::size_t extra) const {
  if (extra > limits_.max_rows - total_samples_) {
    throw TraceError("delay trace: more than " + std::to_string(limits_.max_rows) +
                     " samples");
  }
}

void DelayTrace::check_sample(const TraceSample& s) const {
  if (s.owd < Duration::zero()) throw TraceError("delay trace: negative delay");
  if (s.owd > limits_.max_owd) {
    throw TraceError("delay trace: delay above the " +
                     std::to_string(limits_.max_owd.nanos() / 1'000'000) + " ms ceiling");
  }
  if (s.at < TimePoint::epoch() || s.at > TimePoint::epoch() + limits_.max_time) {
    throw TraceError("delay trace: timestamp outside [0, max_time]");
  }
}

void DelayTrace::add(std::string_view from, std::string_view to, TimePoint at,
                     Duration owd) {
  check_rows(1);
  const TraceSample sample{at, owd};
  check_sample(sample);
  Link& l = link_slot(from, to);
  if (!l.samples->empty()) check_order(from, to, l.samples->back().at, at);
  l.samples->push_back(sample);
  ++total_samples_;
  if (at > end_time_) end_time_ = at;
}

void DelayTrace::add_link(std::string_view from, std::string_view to,
                          std::vector<TraceSample> samples) {
  if (samples.empty()) return;
  check_rows(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    check_sample(samples[i]);
    if (i > 0) check_order(from, to, samples[i - 1].at, samples[i].at);
  }
  Link& l = link_slot(from, to);
  if (!l.samples->empty()) check_order(from, to, l.samples->back().at, samples.front().at);
  total_samples_ += samples.size();
  end_time_ = std::max(end_time_, samples.back().at);
  if (l.samples->empty()) {
    *l.samples = std::move(samples);
  } else {
    l.samples->insert(l.samples->end(), samples.begin(), samples.end());
  }
}

std::shared_ptr<const std::vector<TraceSample>> DelayTrace::samples(
    std::string_view from, std::string_view to) const {
  for (const Link& l : links_) {
    if (l.key.from == from && l.key.to == to) return l.samples;
  }
  return nullptr;
}

DelayTrace DelayTrace::parse_csv(std::string_view text, const TraceLimits& limits) {
  DelayTrace trace(limits);
  trace.parse_into(text);
  return trace;
}

void DelayTrace::parse_into(std::string_view text) {
  const std::size_t samples_before = total_samples_;
  std::size_t line_no = 0;
  bool saw_header = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;
    if (!saw_header) {
      if (line != "time_ms,from,to,owd_ms") {
        fail(line_no, "expected header \"time_ms,from,to,owd_ms\"");
      }
      saw_header = true;
      continue;
    }
    // Split into exactly four fields; a truncated or overlong row is a
    // parse error, not a silently-misread sample.
    std::string_view fields[4];
    std::size_t start = 0;
    std::size_t field = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        if (field >= 4) fail(line_no, "too many fields (want 4)");
        fields[field++] = line.substr(start, i - start);
        start = i + 1;
      }
    }
    if (field != 4) fail(line_no, "truncated row (want 4 fields, got " +
                                      std::to_string(field) + ")");
    const std::int64_t at_ns = parse_ms_field(fields[0], line_no, "time_ms");
    const std::int64_t owd_ns = parse_ms_field(fields[3], line_no, "owd_ms");
    try {
      add(fields[1], fields[2], TimePoint{at_ns}, Duration{owd_ns});
    } catch (const TraceError& e) {
      fail(line_no, e.what());
    }
  }
  if (!saw_header) throw TraceError("delay trace: empty input (no header)");
  if (total_samples_ == samples_before) throw TraceError("delay trace: no samples");
}

DelayTrace DelayTrace::load(const std::string& path, const TraceLimits& limits) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.path().extension() == ".csv") files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) throw TraceError("delay trace: no *.csv files in " + path);
  } else {
    files.push_back(path);
  }
  DelayTrace trace(limits);
  std::string text;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw TraceError("delay trace: cannot open " + file);
    // Chunked reads, not a size from seeking: a FIFO or `<(zcat ...)` works.
    text.clear();
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0) text.append(chunk, in.gcount());
    if (in.bad()) throw TraceError("delay trace: cannot read " + file);
    try {
      trace.parse_into(text);
    } catch (const TraceError& e) {
      throw TraceError(file + ": " + e.what());
    }
  }
  return trace;
}

std::string DelayTrace::to_csv() const {
  std::string out = "time_ms,from,to,owd_ms\n";
  for (const Link& l : links_) {
    for (const TraceSample& s : *l.samples) {
      append_ms(out, s.at.nanos());
      out += ',';
      out += l.key.from;
      out += ',';
      out += l.key.to;
      out += ',';
      append_ms(out, s.owd.nanos());
      out += '\n';
    }
  }
  return out;
}

}  // namespace domino::wan
