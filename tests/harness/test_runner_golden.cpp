// Golden digests of whole runs, one per protocol and scenario.
//
// Each digest folds everything a run reports about protocol behaviour into
// one 64-bit FNV-1a value: every commit/execution latency sample, the
// per-client samples, per-replica store fingerprints and applied counts,
// traffic and drop counters, the fault digest, recovery accounting, the
// protocol's fast/slow/DFP/DM counters and Domino's calibration rows. The
// expected values were recorded before the runner's per-protocol build
// functions were folded into one driver; any change to node construction
// order, clock draws or wiring shows up here as a digest mismatch.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "harness/runner.h"
#include "support/golden_scenarios.h"

namespace domino::harness {
namespace {

using test::faulted_scenario;
using test::globe_scenario;

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const StatAccumulator& samples) {
    add(static_cast<std::uint64_t>(samples.count()));
    for (const double v : samples.sorted_values()) add(v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// What a digest folds in. kBehaviour leaves out the two byte counters a
/// change of catch-up encoding moves (bytes_sent, recovery.catchup_bytes)
/// and keeps everything a protocol does: latency samples, fingerprints,
/// applied counts, packet and drop counts, retries and recovery events.
enum class Fold : std::uint8_t { kAll, kBehaviour };

std::uint64_t run_digest(const RunResult& r, Fold fold = Fold::kAll) {
  const bool all = fold == Fold::kAll;
  Digest d;
  d.add(r.commit_ms);
  d.add(r.exec_ms);
  for (const StatAccumulator& c : r.commit_per_client) d.add(c);
  for (const std::uint64_t v : {r.submitted, r.committed, r.fast_path, r.slow_path,
                                r.dfp_chosen, r.dm_chosen, r.packets_sent}) {
    d.add(v);
  }
  if (all) d.add(r.bytes_sent);
  for (const std::uint64_t v :
       {r.client_committed, r.packets_dropped, r.drops_crashed_source, r.drops_crashed_dest,
        r.drops_partition, r.fault_digest, r.fault_transitions, r.client_retries,
        r.client_abandoned, r.client_inflight_end}) {
    d.add(v);
  }
  for (const std::uint64_t fp : r.replica_store_fingerprints) d.add(fp);
  for (const std::uint64_t n : r.replica_applied_counts) d.add(n);
  const recovery::RecoveryStats& rec = r.recovery;
  for (const std::uint64_t v :
       {rec.persisted_records, rec.persisted_bytes, rec.restarts, rec.replayed_records,
        rec.replayed_bytes, rec.catchup_installs}) {
    d.add(v);
  }
  if (all) d.add(rec.catchup_bytes);
  d.add(rec.rejoin_ns_total);
  d.add(r.recovery_downtime_ns);
  for (const obs::CalibrationRow& row : r.calibration) {
    d.add(static_cast<std::uint64_t>(row.owner.value()));
    d.add(static_cast<std::uint64_t>(row.target.value()));
    d.add(row.samples);
    d.add(row.covered);
    d.add(row.mean_margin_ns);
    d.add(row.max_overshoot_ns);
  }
  return d.value();
}

struct GoldenCase {
  Protocol protocol;
  std::uint64_t fault_free;
  std::uint64_t faulted;
  std::uint64_t faulted_behaviour;  // run_digest(faulted run, Fold::kBehaviour)
};

// Name the case in gtest output instead of dumping its raw (padded) bytes.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << protocol_name(c.protocol); }

class RunnerGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(RunnerGolden, DigestsMatchRecordedRuns) {
  const GoldenCase c = GetParam();
  EXPECT_EQ(run_digest(run_protocol(c.protocol, globe_scenario())), c.fault_free);
  const RunResult faulted = run_protocol(c.protocol, faulted_scenario());
  EXPECT_EQ(run_digest(faulted), c.faulted);
  EXPECT_EQ(run_digest(faulted, Fold::kBehaviour), c.faulted_behaviour);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, RunnerGolden,
    ::testing::Values(
        GoldenCase{Protocol::kMultiPaxos, 1577456184118223445ULL, 11720563419693566971ULL,
                   488622132283755735ULL},
        GoldenCase{Protocol::kMencius, 5574884185746427583ULL, 3434093303032961436ULL,
                   9537278719594895679ULL},
        // EPaxos's faulted digests are recorded with a restarted replica
        // re-executing, on top of an installed snapshot, the replayed
        // commands that snapshot does not reflect: the restarted replica
        // and replica 0 end with the same 906 commands and fingerprint.
        GoldenCase{Protocol::kEPaxos, 7845187536802149254ULL, 14929037929629809316ULL,
                   8364850840533229861ULL},
        GoldenCase{Protocol::kFastPaxos, 13749016476035831086ULL, 5776793281020817791ULL,
                   4532726327176688615ULL},
        GoldenCase{Protocol::kDomino, 10126122753071300917ULL, 8605708174440031514ULL,
                   10255544193637160286ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = protocol_name(info.param.protocol);
      for (char& ch : name) {
        if (ch == ' ' || ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace domino::harness
