// Golden digests of the observability exports, one per protocol.
//
// Each protocol runs RunnerGolden's faulted scenario (durable syncs, client
// retries, an amnesiac restart, a partition; the prediction audit on) with
// the timeline sampled every 250 ms and the steady-state detector reading
// the committed-request rate. A digest folds the run report (metrics,
// timeline, SLO, calibration and prediction blocks, the incident log), the
// timeline CSV, the calibration CSV and the decision CSV, so it moves if
// any exported byte does. Spans stay off: SpanGolden pins the Chrome trace
// and the critical paths. The values were recorded before the windowed
// histograms became Histogram differences and the calibration cells moved
// into the prober; a mismatch means an export changed, not that the digest
// needs recording again.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "harness/run_report.h"
#include "harness/runner.h"
#include "obs/calibration.h"
#include "obs/predict.h"
#include "obs/timeseries.h"
#include "support/golden_scenarios.h"

namespace domino::harness {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t export_digest(Protocol protocol) {
  Scenario s = test::faulted_scenario();
  s.timeseries_interval = milliseconds(250);
  s.slo.steady_metric = "client.committed";
  const RunResult r = run_protocol(protocol, s);
  const std::string name = protocol_name(protocol);
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(h, report_json(protocol, s, r, /*include_trace=*/true));
  h = fnv1a(h, obs::timeseries_to_csv(*r.timeseries));
  h = fnv1a(h, obs::calibration_to_csv(r.calibration));
  return fnv1a(h, obs::decisions_to_csv(
                      r.predict != nullptr ? r.predict->records()
                                           : std::vector<obs::DecisionRecord>{},
                      name));
}

struct ObsCase {
  Protocol protocol;
  std::uint64_t digest;
};

// Name the case in gtest output instead of dumping its raw (padded) bytes.
void PrintTo(const ObsCase& c, std::ostream* os) { *os << protocol_name(c.protocol); }

class ObsGolden : public ::testing::TestWithParam<ObsCase> {};

TEST_P(ObsGolden, ExportsMatchRecordedRun) {
  const ObsCase c = GetParam();
  EXPECT_EQ(export_digest(c.protocol), c.digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ObsGolden,
    ::testing::Values(ObsCase{Protocol::kMultiPaxos, 3638159386202750663ULL},
                      ObsCase{Protocol::kMencius, 7154919359563150304ULL},
                      ObsCase{Protocol::kEPaxos, 15277956113445550391ULL},
                      ObsCase{Protocol::kFastPaxos, 2325262112717540721ULL},
                      ObsCase{Protocol::kDomino, 4905344734875756938ULL}),
    [](const ::testing::TestParamInfo<ObsCase>& info) {
      std::string name = protocol_name(info.param.protocol);
      for (char& ch : name) {
        if (ch == ' ' || ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace domino::harness
