#include "wan/delay_trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "wan/ms_field.h"

namespace domino::wan {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw TraceError("delay trace, line " + std::to_string(line) + ": " + what);
}

/// Millisecond field -> nanoseconds: the exact path when the field is in
/// the writer's form, the general one otherwise.
std::int64_t ms_to_ns(std::string_view field, const char* name) {
  if (const auto ns = detail::exact_ms_to_ns(field)) return *ns;
  return detail::general_ms_to_ns(field, name);
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
  for (Link& l : links_) {
    if (l.key.from == from && l.key.to == to) return l;
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
  append(*link_slot(from, to).samples, from, to, sample);
}

void DelayTrace::append(std::vector<TraceSample>& samples, std::string_view from,
                        std::string_view to, const TraceSample& s) {
  if (!samples.empty()) check_order(from, to, samples.back().at, s.at);
  samples.push_back(s);
  ++total_samples_;
  if (s.at > end_time_) end_time_ = s.at;
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

void DelayTrace::trim() {
  for (Link& l : links_) l.samples->shrink_to_fit();
}

/// The line parser for one input. feed() parses the complete lines of
/// each stretch of text and reports how much it used; the caller keeps the
/// rest for the next stretch, and hands the unterminated tail to finish().
/// Line numbers run across feeds.
class DelayTrace::CsvReader {
 public:
  explicit CsvReader(DelayTrace& trace)
      : trace_(trace), samples_before_(trace.total_samples_) {}

  /// Parse every '\n'-terminated line of `text`; returns the bytes used.
  std::size_t feed(std::string_view text) {
    const char* p = text.data();
    const char* const end = p + text.size();
    while (p != end) {
      const auto* eol = static_cast<const char*>(std::memchr(p, '\n', end - p));
      if (eol == nullptr) break;
      line({p, static_cast<std::size_t>(eol - p)});
      p = eol + 1;
    }
    return static_cast<std::size_t>(p - text.data());
  }

  /// Parse the last line (no terminator, maybe empty) and check that the
  /// input held a header and a sample.
  void finish(std::string_view last) {
    line(last);
    if (!saw_header_) throw TraceError("delay trace: empty input (no header)");
    if (trace_.total_samples_ == samples_before_) throw TraceError("delay trace: no samples");
  }

 private:
  void line(std::string_view text) {
    ++line_no_;
    if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
    if (text.empty() || text.front() == '#') return;
    if (!saw_header_) {
      if (text != "time_ms,from,to,owd_ms") {
        fail(line_no_, "expected header \"time_ms,from,to,owd_ms\"");
      }
      saw_header_ = true;
      return;
    }
    try {
      row(text);
    } catch (const TraceError& e) {
      fail(line_no_, e.what());
    }
  }

  void row(std::string_view text) {
    // Split into exactly four fields; a truncated or overlong row is a
    // parse error, not a silently-misread sample.
    std::string_view fields[4];
    const char* p = text.data();
    const char* const end = p + text.size();
    for (std::size_t i = 0; i < 3; ++i) {
      const auto* comma = static_cast<const char*>(std::memchr(p, ',', end - p));
      if (comma == nullptr) {
        throw TraceError("truncated row (want 4 fields, got " + std::to_string(i + 1) + ")");
      }
      fields[i] = {p, static_cast<std::size_t>(comma - p)};
      p = comma + 1;
    }
    if (std::memchr(p, ',', end - p) != nullptr) throw TraceError("too many fields (want 4)");
    fields[3] = {p, static_cast<std::size_t>(end - p)};
    const std::int64_t at_ns = ms_to_ns(fields[0], "time_ms");
    const std::int64_t owd_ns = ms_to_ns(fields[3], "owd_ms");
    // add()'s checks in add()'s order, but the link comes from this
    // reader's cache when the row names the previous row's link, as a CSV
    // that lists each link's rows in a run mostly does. "from,to" is one
    // span of the row and holds no other comma, so it names the link.
    const TraceSample sample{TimePoint{at_ns}, Duration{owd_ns}};
    trace_.check_rows(1);
    trace_.check_sample(sample);
    const std::string_view pair =
        text.substr(fields[0].size() + 1, fields[1].size() + 1 + fields[2].size());
    if (samples_ == nullptr || pair != pair_) {
      samples_ = trace_.link_slot(fields[1], fields[2]).samples.get();
      pair_.assign(pair);
    }
    trace_.append(*samples_, fields[1], fields[2], sample);
  }

  DelayTrace& trace_;
  const std::size_t samples_before_;
  std::size_t line_no_ = 0;
  bool saw_header_ = false;
  std::string pair_;  // the cached link as its "from,to" row span
  std::vector<TraceSample>* samples_ = nullptr;  // and its samples
};

DelayTrace DelayTrace::parse_csv(std::string_view text, const TraceLimits& limits) {
  DelayTrace trace(limits);
  CsvReader reader(trace);
  reader.finish(text.substr(reader.feed(text)));
  trace.trim();
  return trace;
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
  // The partial line carried over from the last chunk, then one chunk; it
  // grows only to hold a line longer than a chunk.
  std::vector<char> buffer(kReadChunk);
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw TraceError("delay trace: cannot open " + file);
    CsvReader reader(trace);
    std::size_t carry = 0;
    try {
      // Chunked reads, not a size from seeking: a FIFO or `<(zcat ...)` works.
      while (in.read(buffer.data() + carry, kReadChunk) || in.gcount() > 0) {
        const auto got = static_cast<std::size_t>(in.gcount());
        // The carried bytes hold no '\n': feed only when the new ones end
        // a line, so a line that spans many chunks is scanned once.
        if (std::memchr(buffer.data() + carry, '\n', got) == nullptr) {
          carry += got;
        } else {
          const std::string_view text(buffer.data(), carry + got);
          const std::size_t used = reader.feed(text);
          carry = text.size() - used;
          std::memmove(buffer.data(), buffer.data() + used, carry);
        }
        if (buffer.size() < carry + kReadChunk) buffer.resize(carry + kReadChunk);
      }
      if (!in.bad()) reader.finish({buffer.data(), carry});
    } catch (const TraceError& e) {
      throw TraceError(file + ": " + e.what());
    }
    if (in.bad()) throw TraceError("delay trace: cannot read " + file);
  }
  trace.trim();
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

namespace detail {

std::optional<std::int64_t> exact_ms_to_ns(std::string_view field) noexcept {
  const char* p = field.data();
  const char* const end = p + field.size();
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  // Unsigned accumulation: a run too long to fit wraps harmlessly and is
  // rejected by its length.
  const auto digits = [&](std::uint64_t& value) {
    const char* const first = p;
    for (; p != end; ++p) {
      const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
      if (d > 9) break;
      value = value * 10 + d;
    }
    return p - first;
  };
  std::uint64_t whole = 0;
  const auto whole_digits = digits(whole);
  if (whole_digits < 1 || whole_digits > 9) return std::nullopt;
  std::uint64_t frac = 0;
  std::ptrdiff_t frac_digits = 0;
  if (p != end) {
    if (*p != '.') return std::nullopt;
    ++p;
    frac_digits = digits(frac);
    if (frac_digits < 1 || frac_digits > 6 || p != end) return std::nullopt;
  }
  static constexpr std::uint64_t kFracScale[] = {1'000'000, 100'000, 10'000, 1'000,
                                                 100,       10,      1};
  const auto ns =
      static_cast<std::int64_t>(whole * 1'000'000 + frac * kFracScale[frac_digits]);
  return negative ? -ns : ns;
}

std::int64_t general_ms_to_ns(std::string_view field, const char* name) {
  if (field.empty()) throw TraceError(std::string(name) + " is empty");
  // from_chars rounds correctly, as strtod does, but takes no leading
  // whitespace, '+' or hex form.
  double ms = 0;
  const auto [end, ec] = std::from_chars(field.data(), field.data() + field.size(), ms);
  if (ec != std::errc{} || end != field.data() + field.size()) {
    throw TraceError(std::string(name) + " is not a number");
  }
  if (!std::isfinite(ms)) throw TraceError(std::string(name) + " is not finite");
  // llround keeps the CSV<->ns round trip exact at the printed resolution.
  const double ns = ms * 1e6;
  if (ns < -9.2e18 || ns > 9.2e18) throw TraceError(std::string(name) + " out of range");
  return std::llround(ns);
}

}  // namespace detail
}  // namespace domino::wan
