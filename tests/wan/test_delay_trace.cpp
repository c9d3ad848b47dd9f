#include "wan/delay_trace.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

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

TEST(DelayTrace, LoadRejectsMissingPath) {
  EXPECT_THROW((void)DelayTrace::load("/nonexistent/trace.csv"), TraceError);
}

}  // namespace
}  // namespace domino::wan
