// Golden digests of the span export, one per protocol and scenario.
//
// Each protocol runs RunnerGolden's two scenarios with causal command spans
// on: the fault-free run, whose critical paths name every phase, and the
// faulted run (durable syncs, client retries, the amnesiac restart of
// NodeId{1}, a partition), whose restart closes the waits open on the
// restarted replica. A digest folds the Chrome trace JSON, the
// critical-path CSV and the span and edge counts, so it moves if any span
// opens, closes or links differently: a wait closed at another instant, a
// handler span lost, a root span left open. The fault-free values were
// recorded before the protocols' wait spans moved into rpc::Node; the
// faulted ones when a durable sync's continuation started running inside
// the span that asked for the sync (before, every send after a sync was
// untraced). A mismatch means some site's open or close moved, not that
// the digest needs recording again.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "harness/runner.h"
#include "obs/causal.h"
#include "obs/chrome_trace.h"
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

std::uint64_t export_digest(Protocol protocol, Scenario s) {
  s.command_spans = true;
  const RunResult r = run_protocol(protocol, s);
  EXPECT_EQ(r.spans->dropped_spans(), 0u);
  EXPECT_EQ(r.spans->dropped_edges(), 0u);
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(h, obs::chrome_trace_json(r.spans.get(), r.trace.get()));
  h = fnv1a(h, obs::paths_to_csv(r.critical_paths, protocol_name(protocol)));
  return fnv1a(h, std::to_string(r.spans->spans().size()) + " spans " +
                      std::to_string(r.spans->edges().size()) + " edges");
}

struct SpanCase {
  Protocol protocol;
  std::uint64_t fault_free;
  std::uint64_t faulted;
};

// Name the case in gtest output instead of dumping its raw (padded) bytes.
void PrintTo(const SpanCase& c, std::ostream* os) { *os << protocol_name(c.protocol); }

class SpanGolden : public ::testing::TestWithParam<SpanCase> {};

TEST_P(SpanGolden, ExportsMatchRecordedRuns) {
  const SpanCase c = GetParam();
  EXPECT_EQ(export_digest(c.protocol, test::globe_scenario()), c.fault_free);
  EXPECT_EQ(export_digest(c.protocol, test::faulted_scenario()), c.faulted);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SpanGolden,
    ::testing::Values(
        SpanCase{Protocol::kMultiPaxos, 11250556184770715066ULL, 5153580016811221415ULL},
        SpanCase{Protocol::kMencius, 15388799271550037380ULL, 4913114424418609356ULL},
        SpanCase{Protocol::kEPaxos, 13810803335834172781ULL, 15570144283970547857ULL},
        SpanCase{Protocol::kFastPaxos, 11729594966035869901ULL, 4804880662615744405ULL},
        SpanCase{Protocol::kDomino, 15467380942866479077ULL, 17218506546833077939ULL}),
    [](const ::testing::TestParamInfo<SpanCase>& info) {
      std::string name = protocol_name(info.param.protocol);
      for (char& ch : name) {
        if (ch == ' ' || ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace domino::harness
