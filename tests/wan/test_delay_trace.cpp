#include "wan/delay_trace.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "wan/ms_field.h"

namespace domino::wan {
namespace {

constexpr const char* kGood =
    "# comment line\n"
    "time_ms,from,to,owd_ms\n"
    "0.000000,VA,WA,33.512000\n"
    "10.000000,VA,WA,33.498000\n"
    "0.000000,WA,VA,34.100000\n"
    "20.500000,VA,WA,33.700125\n";

TEST(DelayTrace, ParsesSimpleCsv) {
  const DelayTrace t = DelayTrace::parse_csv(kGood);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.total_samples(), 4u);
  const auto va_wa = t.samples("VA", "WA");
  ASSERT_NE(va_wa, nullptr);
  ASSERT_EQ(va_wa->size(), 3u);
  EXPECT_EQ((*va_wa)[0].at, TimePoint::epoch());
  EXPECT_EQ((*va_wa)[0].owd, microseconds(33'512));
  EXPECT_EQ((*va_wa)[2].at, TimePoint::epoch() + microseconds(20'500));
  EXPECT_EQ(t.end_time(), TimePoint::epoch() + microseconds(20'500));
  EXPECT_EQ(t.samples("WA", "NSW"), nullptr);
}

TEST(DelayTrace, CsvRoundTripsExactly) {
  const DelayTrace t = DelayTrace::parse_csv(kGood);
  const std::string csv = t.to_csv();
  const DelayTrace back = DelayTrace::parse_csv(csv);
  ASSERT_EQ(back.link_count(), t.link_count());
  for (std::size_t i = 0; i < t.link_count(); ++i) {
    EXPECT_EQ(back.link(i), t.link(i));
    EXPECT_EQ(*back.samples_at(i), *t.samples_at(i));
  }
  // Serialization itself is a fixed point.
  EXPECT_EQ(back.to_csv(), csv);
}

TEST(DelayTrace, NanosecondResolutionSurvivesRoundTrip) {
  DelayTrace t;
  t.add("A", "B", TimePoint::epoch() + nanoseconds(123'456'789),
        nanoseconds(33'000'001));
  const DelayTrace back = DelayTrace::parse_csv(t.to_csv());
  EXPECT_EQ((*back.samples("A", "B"))[0].at,
            TimePoint::epoch() + nanoseconds(123'456'789));
  EXPECT_EQ((*back.samples("A", "B"))[0].owd, nanoseconds(33'000'001));
}

TEST(DelayTrace, RejectsMissingHeader) {
  EXPECT_THROW((void)DelayTrace::parse_csv("0.0,VA,WA,33.5\n"), TraceError);
  EXPECT_THROW((void)DelayTrace::parse_csv(""), TraceError);
  EXPECT_THROW((void)DelayTrace::parse_csv("# only a comment\n"), TraceError);
}

TEST(DelayTrace, RejectsTruncatedAndOverlongRows) {
  EXPECT_THROW(
      (void)DelayTrace::parse_csv("time_ms,from,to,owd_ms\n0.0,VA,WA\n"),
      TraceError);
  EXPECT_THROW(
      (void)DelayTrace::parse_csv("time_ms,from,to,owd_ms\n0.0,VA\n"),
      TraceError);
  EXPECT_THROW(
      (void)DelayTrace::parse_csv("time_ms,from,to,owd_ms\n0.0,VA,WA,33.5,extra\n"),
      TraceError);
  // A row truncated mid-number (e.g. a partial download) must not parse.
  EXPECT_THROW(
      (void)DelayTrace::parse_csv("time_ms,from,to,owd_ms\n0.0,VA,WA,33.5\n10.0,VA,W"),
      TraceError);
}

TEST(DelayTrace, RejectsNonMonotoneTimestamps) {
  EXPECT_THROW((void)DelayTrace::parse_csv("time_ms,from,to,owd_ms\n"
                                           "10.0,VA,WA,33.5\n"
                                           "5.0,VA,WA,33.5\n"),
               TraceError);
  // Monotonicity is per directed link: interleaving other links is fine.
  const DelayTrace ok = DelayTrace::parse_csv("time_ms,from,to,owd_ms\n"
                                              "10.0,VA,WA,33.5\n"
                                              "5.0,WA,VA,33.5\n"
                                              "10.0,VA,WA,33.6\n");
  EXPECT_EQ(ok.total_samples(), 3u);
}

TEST(DelayTrace, RejectsBadDelayValues) {
  const char* bad_rows[] = {
      "0.0,VA,WA,nan\n",     "0.0,VA,WA,inf\n",  "0.0,VA,WA,-1.0\n",
      "0.0,VA,WA,99999999\n",  // over max_owd
      "0.0,VA,WA,abc\n",     "0.0,VA,WA,\n",     "abc,VA,WA,33.5\n",
      "-5.0,VA,WA,33.5\n",     // negative timestamp
      "0.0,,WA,33.5\n",        // empty endpoint
  };
  for (const char* row : bad_rows) {
    const std::string csv = std::string("time_ms,from,to,owd_ms\n") + row;
    EXPECT_THROW((void)DelayTrace::parse_csv(csv), TraceError) << row;
  }
}

TEST(DelayTrace, RejectsNumberSyntaxTheWriterNeverPrints) {
  // to_csv() prints plain decimals; leading whitespace, a '+' sign and hex
  // floats are not part of the format.
  const char* bad_rows[] = {
      "+1.0,VA,WA,33.5\n", " 1.0,VA,WA,33.5\n", "1.0,VA,WA, 33.5\n",
      "1.0,VA,WA,+33.5\n", "1.0,VA,WA,0x21p0\n", "1.0,VA,WA,33.5 \n",
  };
  for (const char* row : bad_rows) {
    const std::string csv = std::string("time_ms,from,to,owd_ms\n") + row;
    EXPECT_THROW((void)DelayTrace::parse_csv(csv), TraceError) << row;
  }
  // Exponent form is still a plain decimal number.
  const DelayTrace t = DelayTrace::parse_csv("time_ms,from,to,owd_ms\n1e1,VA,WA,3.35e1\n");
  EXPECT_EQ((*t.samples("VA", "WA"))[0].at, TimePoint::epoch() + milliseconds(10));
  EXPECT_EQ((*t.samples("VA", "WA"))[0].owd, microseconds(33'500));
}

TEST(DelayTrace, EnforcesRowLimit) {
  TraceLimits limits;
  limits.max_rows = 3;
  std::string csv = "time_ms,from,to,owd_ms\n";
  for (int i = 0; i < 4; ++i) {
    csv += std::to_string(i * 10) + ".0,VA,WA,33.5\n";
  }
  EXPECT_THROW((void)DelayTrace::parse_csv(csv, limits), TraceError);
  csv = "time_ms,from,to,owd_ms\n0.0,VA,WA,33.5\n";
  EXPECT_EQ(DelayTrace::parse_csv(csv, limits).total_samples(), 1u);
}

TEST(DelayTrace, EnforcesLinkAndNameLimits) {
  TraceLimits limits;
  limits.max_links = 2;
  std::string csv = "time_ms,from,to,owd_ms\n"
                    "0.0,A,B,1.0\n0.0,B,A,1.0\n0.0,A,C,1.0\n";
  EXPECT_THROW((void)DelayTrace::parse_csv(csv, limits), TraceError);

  TraceLimits name_limits;
  name_limits.max_name_length = 4;
  EXPECT_THROW((void)DelayTrace::parse_csv(
                   "time_ms,from,to,owd_ms\n0.0,TOOLONG,WA,1.0\n", name_limits),
               TraceError);
}

TEST(DelayTrace, AddLinkValidatesMovedSamples) {
  DelayTrace t;
  std::vector<TraceSample> good = {{TimePoint::epoch(), milliseconds(10)},
                                   {TimePoint::epoch() + seconds(1), milliseconds(11)}};
  t.add_link("VA", "WA", good);
  EXPECT_EQ(t.total_samples(), 2u);

  std::vector<TraceSample> unsorted = {{TimePoint::epoch() + seconds(1), milliseconds(10)},
                                       {TimePoint::epoch(), milliseconds(11)}};
  EXPECT_THROW(t.add_link("WA", "VA", unsorted), TraceError);
  std::vector<TraceSample> negative = {{TimePoint::epoch(), milliseconds(-1)}};
  EXPECT_THROW(t.add_link("WA", "VA", negative), TraceError);
  // A rejected vector adds nothing, not even an empty link.
  EXPECT_EQ(t.samples("WA", "VA"), nullptr);
  EXPECT_EQ(t.total_samples(), 2u);

  // A new link takes the vector's buffer as is; an existing one appends,
  // and must stay monotone across the join.
  std::vector<TraceSample> moved = {{TimePoint::epoch(), milliseconds(20)}};
  const TraceSample* buffer = moved.data();
  t.add_link("WA", "VA", std::move(moved));
  EXPECT_EQ(t.samples("WA", "VA")->data(), buffer);
  EXPECT_THROW(t.add_link("VA", "WA", {{TimePoint::epoch(), milliseconds(12)}}), TraceError);
  t.add_link("VA", "WA", {{TimePoint::epoch() + seconds(2), milliseconds(12)}});
  EXPECT_EQ(t.samples("VA", "WA")->size(), 3u);
  EXPECT_EQ(t.total_samples(), 4u);
  EXPECT_EQ(t.end_time(), TimePoint::epoch() + seconds(2));
}

TEST(DelayTrace, LoadsCheckedInFixtures) {
  const DelayTrace globe =
      DelayTrace::load(std::string(DOMINO_TRACE_DIR) + "/globe_va.csv");
  EXPECT_EQ(globe.link_count(), 6u);
  ASSERT_NE(globe.samples("VA", "NSW"), nullptr);
  const DelayTrace drift =
      DelayTrace::load(std::string(DOMINO_TRACE_DIR) + "/va_wa_drift.csv");
  EXPECT_EQ(drift.link_count(), 2u);
  // Loading the fixture directory throws: both files carry VA<->WA samples
  // starting at t=0, and per-link monotonicity holds across files too.
  EXPECT_THROW((void)DelayTrace::load(DOMINO_TRACE_DIR), TraceError);
}

TEST(DelayTrace, LoadsDirectoryInSortedOrder) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "wan_trace_dir";
  fs::create_directories(dir);
  // b.csv continues a.csv's VA->WA series; sorted filename order makes the
  // concatenation monotone. The stray .txt file must be ignored.
  std::ofstream(dir / "a.csv") << "time_ms,from,to,owd_ms\n0.0,VA,WA,33.5\n";
  std::ofstream(dir / "b.csv") << "time_ms,from,to,owd_ms\n10.0,VA,WA,34.5\n";
  std::ofstream(dir / "notes.txt") << "not a trace\n";
  const DelayTrace t = DelayTrace::load(dir.string());
  EXPECT_EQ(t.link_count(), 1u);
  ASSERT_EQ(t.samples("VA", "WA")->size(), 2u);
  EXPECT_EQ((*t.samples("VA", "WA"))[1].owd, microseconds(34'500));
  fs::remove_all(dir);
}

TEST(DelayTrace, LoadMatchesParsingTheFileText) {
  const std::string path = std::string(DOMINO_TRACE_DIR) + "/globe_va.csv";
  std::ifstream in(path, std::ios::binary);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  const DelayTrace loaded = DelayTrace::load(path);
  const DelayTrace parsed = DelayTrace::parse_csv(text);
  ASSERT_EQ(loaded.link_count(), parsed.link_count());
  for (std::size_t i = 0; i < loaded.link_count(); ++i) {
    EXPECT_EQ(loaded.link(i), parsed.link(i));
    EXPECT_EQ(*loaded.samples_at(i), *parsed.samples_at(i));
  }
  EXPECT_EQ(loaded.to_csv(), text);  // the fixture is in the writer's form
}

TEST(DelayTrace, CrossFileMonotonicityReportsFileAndLine) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "wan_trace_dir_backwards";
  fs::create_directories(dir);
  std::ofstream(dir / "a.csv") << "time_ms,from,to,owd_ms\n10.0,VA,WA,33.5\n";
  std::ofstream(dir / "b.csv") << "time_ms,from,to,owd_ms\n20.0,WA,VA,33.5\n5.0,VA,WA,34.5\n";
  try {
    (void)DelayTrace::load(dir.string());
    ADD_FAILURE() << "b.csv steps VA->WA back in time";
  } catch (const TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("b.csv"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("VA->WA"), std::string::npos) << what;
  }
  fs::remove_all(dir);
}

TEST(DelayTrace, LoadReadsAStreamThatCannotSeek) {
  // A FIFO cannot seek, like a process substitution `<(zcat trace.csv.gz)`
  // passed as Scenario::trace_dir: the loader must read it to EOF.
  namespace fs = std::filesystem;
  const fs::path fifo = fs::path(::testing::TempDir()) / "wan_trace_fifo.csv";
  fs::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // A loader that closes the FIFO early must fail the test, not kill it.
  const auto old_sigpipe = std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] { std::ofstream(fifo) << kGood; });
  DelayTrace t;
  EXPECT_NO_THROW(t = DelayTrace::load(fifo.string()));
  writer.join();
  std::signal(SIGPIPE, old_sigpipe);
  fs::remove(fifo);
  EXPECT_EQ(t.total_samples(), 4u);
  EXPECT_EQ(t.to_csv(), DelayTrace::parse_csv(kGood).to_csv());
}

// The outcome of one numeric-field parse: the nanoseconds, or the error text.
std::string outcome(const std::function<std::int64_t()>& parse) {
  try {
    return std::to_string(parse());
  } catch (const TraceError& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(DelayTrace, ExactDecimalPathMatchesFromCharsReference) {
  // Hand-picked edges, then a seeded sweep over 1-12 integer digits and
  // 0-9 fraction digits (0 = no '.'), signs and leading zeros included.
  std::vector<std::string> inputs = {
      "0",      "-0",     "-0.000000", "0.0",  "000000001.5", "0000000001.5",
      "5.",     ".5",     "-.5",       "1e1",  "3.35e1",      "inf",
      "nan",    "-",      "",          ".",    "1.2.3",       "-999999999.999999",
      "999999999.999999", "1000000000.0",      "0.0000001",   "33.512000",
      "33.5 ", "+33.5",   " 33.5",     "0x21p0", "1,5",       "--1",
      "12a.5"};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100'000; ++i) {
    std::string s = rng() % 4 == 0 ? "-" : "";
    const int whole = 1 + static_cast<int>(rng() % 12);
    const int frac = static_cast<int>(rng() % 10);
    const bool zeros = rng() % 4 == 0;  // a run of leading zeros
    for (int d = 0; d < whole; ++d) {
      s += static_cast<char>('0' + (zeros && d + 1 < whole ? 0 : rng() % 10));
    }
    if (frac > 0) s += '.';
    for (int d = 0; d < frac; ++d) s += static_cast<char>('0' + rng() % 10);
    inputs.push_back(s);
  }
  std::size_t exact = 0;
  for (const std::string& in : inputs) {
    const auto fast = detail::exact_ms_to_ns(in);
    const std::string want = outcome([&] { return detail::general_ms_to_ns(in, "owd_ms"); });
    const std::string got =
        outcome([&] { return fast ? *fast : detail::general_ms_to_ns(in, "owd_ms"); });
    ASSERT_EQ(got, want) << '"' << in << '"';
    // The exact path takes its whole syntax and nothing else.
    const std::size_t sign = in.starts_with('-') ? 1 : 0;
    const std::size_t dot = in.find('.');
    const std::size_t whole = (dot == std::string::npos ? in.size() : dot) - sign;
    const std::size_t frac = dot == std::string::npos ? 0 : in.size() - dot - 1;
    const bool digits_only =
        in.find_first_not_of("0123456789.", sign) == std::string::npos &&
        in.find('.', dot == std::string::npos ? 0 : dot + 1) == std::string::npos;
    const bool in_syntax = digits_only && whole >= 1 && whole <= 9 &&
                           (dot == std::string::npos || (frac >= 1 && frac <= 6));
    EXPECT_EQ(fast.has_value(), in_syntax) << '"' << in << '"';
    exact += fast.has_value();
  }
  EXPECT_GT(exact, inputs.size() / 5);  // the sweep does reach the exact path
}

constexpr std::size_t kChunk = DelayTrace::kReadChunk;

/// Builds a trace text whose pieces can be placed at chosen byte offsets.
struct TraceText {
  std::string text;
  std::size_t rows = 0;
  int next_ms = 0;

  /// One comment line that brings the text to exactly `size` bytes.
  void pad_to(std::size_t size) {
    ASSERT_GE(size, text.size() + 2);
    text += '#';
    text.append(size - text.size() - 1, '-');
    text += '\n';
  }
  /// One VA->WA row for the caller to place.
  std::string row(const char* eol = "\n") {
    ++rows;
    return std::to_string(next_ms++) + ".250000,VA,WA,33.512000" + eol;
  }
  /// Rows on both links until the text is longer than `size`.
  void rows_past(std::size_t size, const char* eol = "\n") {
    while (text.size() <= size) {
      const std::string at = std::to_string(next_ms++) + ".250000,";
      text += at + "VA,WA,33.512000" + eol;
      text += at + "WA,VA,34.100000" + eol;
      rows += 2;
    }
  }
};

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = (std::filesystem::path(::testing::TempDir()) / name).string();
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

void expect_load_matches_parse(const std::string& name, const TraceText& t) {
  ASSERT_GT(t.text.size(), 2 * kChunk) << name;
  const std::string path = write_temp(name, t.text);
  const DelayTrace loaded = DelayTrace::load(path);
  const DelayTrace parsed = DelayTrace::parse_csv(t.text);
  EXPECT_EQ(loaded.total_samples(), t.rows) << name;
  EXPECT_EQ(parsed.total_samples(), t.rows) << name;
  EXPECT_EQ(loaded.link_count(), parsed.link_count()) << name;
  EXPECT_EQ(loaded.to_csv(), parsed.to_csv()) << name;
  std::filesystem::remove(path);
}

TEST(DelayTrace, LoadMatchesParseAcrossChunkBoundaries) {
  const std::string header = "time_ms,from,to,owd_ms\n";
  {
    TraceText t;  // the header straddles the first boundary
    t.pad_to(kChunk - 10);
    t.text += header;
    t.rows_past(2 * kChunk + 100);
    expect_load_matches_parse("straddle_header.csv", t);
  }
  {
    TraceText t;  // a row straddles each boundary
    t.text = header;
    t.rows_past(kChunk / 2);
    t.pad_to(kChunk - 12);
    t.text += t.row();
    t.rows_past(kChunk + kChunk / 2);
    t.pad_to(2 * kChunk - 1);
    t.text += t.row();
    t.rows_past(2 * kChunk + 100);
    expect_load_matches_parse("straddle_row.csv", t);
  }
  {
    TraceText t;  // CRLF lines, with a "\r\n" pair split by the boundary
    t.text = "time_ms,from,to,owd_ms\r\n";
    t.rows_past(kChunk / 2, "\r\n");
    const std::string row = t.row("\r\n");
    t.pad_to(kChunk + 1 - row.size());
    t.text += row;
    ASSERT_EQ(t.text[kChunk - 1], '\r');
    ASSERT_EQ(t.text[kChunk], '\n');
    t.rows_past(2 * kChunk + 100, "\r\n");
    expect_load_matches_parse("straddle_crlf.csv", t);
  }
  {
    TraceText t;  // a comment straddles the first boundary; one spans three chunks
    t.text = header;
    t.rows_past(kChunk / 2);
    t.pad_to(kChunk - 100);
    t.text += "#" + std::string(200, 'c') + "\n";
    t.rows_past(kChunk + 10);
    t.text += "#" + std::string(3 * kChunk, 'l') + "\n";
    t.rows_past(t.text.size() + 100);
    expect_load_matches_parse("straddle_comment.csv", t);
  }
  {
    TraceText t;  // the last row has no newline and straddles the last boundary
    t.text = header;
    t.rows_past(2 * kChunk - 100);
    t.pad_to(2 * kChunk - 5);
    t.text += t.row("");
    expect_load_matches_parse("no_final_newline.csv", t);
  }
}

TEST(DelayTrace, LoadReportsFileAndLineOfABadRowPastTheFirstChunk) {
  for (const std::size_t offset : {kChunk + 1000, kChunk - 5}) {
    TraceText t;
    t.text = "time_ms,from,to,owd_ms\n";
    t.rows_past(kChunk / 2);
    t.pad_to(offset);
    const auto line = 1 + std::count(t.text.begin(), t.text.end(), '\n');
    t.text += "bad,VA,WA,1.000000\n";
    t.rows_past(2 * kChunk + 100);
    const std::string path = write_temp("bad_row.csv", t.text);
    const std::string where =
        "delay trace, line " + std::to_string(line) + ": time_ms is not a number";
    try {
      (void)DelayTrace::parse_csv(t.text);
      ADD_FAILURE() << "parse_csv accepted a bad row";
    } catch (const TraceError& e) {
      EXPECT_EQ(std::string(e.what()), where);
    }
    try {
      (void)DelayTrace::load(path);
      ADD_FAILURE() << "load accepted a bad row";
    } catch (const TraceError& e) {
      EXPECT_EQ(std::string(e.what()), path + ": " + where);
    }
    std::filesystem::remove(path);
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(DelayTrace, FixturesLoadToRecordedSamplesWithoutSlack) {
  // to_csv() digests and per-link counts recorded from the loader before it
  // streamed its input; any change to the parsed values changes the digest.
  struct Pin {
    const char* file;
    std::uint64_t csv_fnv1a;
    std::vector<std::size_t> counts;
  };
  const Pin pins[] = {
      {"globe_va.csv", 0xeef168bf44267e31ull, {12000, 12000, 12000, 12000, 12000, 12000}},
      {"va_wa_drift.csv", 0xaab67c3bd59c589eull, {4800, 4800}},
  };
  for (const Pin& pin : pins) {
    const DelayTrace t = DelayTrace::load(std::string(DOMINO_TRACE_DIR) + "/" + pin.file);
    EXPECT_EQ(fnv1a(t.to_csv()), pin.csv_fnv1a) << pin.file;
    ASSERT_EQ(t.link_count(), pin.counts.size()) << pin.file;
    for (std::size_t i = 0; i < t.link_count(); ++i) {
      EXPECT_EQ(t.samples_at(i)->size(), pin.counts[i]) << pin.file << " link " << i;
      EXPECT_EQ(t.samples_at(i)->capacity(), t.samples_at(i)->size())
          << pin.file << " link " << i;
    }
  }
}

TEST(DelayTrace, LoadRejectsMissingPath) {
  EXPECT_THROW((void)DelayTrace::load("/nonexistent/trace.csv"), TraceError);
}

}  // namespace
}  // namespace domino::wan
