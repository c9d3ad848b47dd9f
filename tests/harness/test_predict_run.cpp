// Integration tests of the prediction audit on real simulated runs: the
// exact reconciliation invariant (every committed Domino command has exactly
// one DecisionRecord whose oracle-regret identity holds in integer
// nanoseconds), estimator calibration from live probe traffic, and
// byte-identical same-seed exports.
#include <gtest/gtest.h>

#include <fstream>

#include "harness/run_report.h"

namespace domino::harness {
namespace {

Scenario audit_scenario() {
  Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.client_dcs = {0, 1, 2};
  s.rps = 100;
  s.warmup = seconds(1);
  s.measure = seconds(3);
  s.cooldown = seconds(1);
  s.seed = 17;
  s.prediction_audit = true;
  return s;
}

/// The audit's books must balance against the client-side accounting, and
/// every reconciled record must satisfy the exact regret/error identities.
void check_audit_invariants(const RunResult& r) {
  ASSERT_NE(r.predict, nullptr);
  const obs::PredictionAudit& audit = *r.predict;
  EXPECT_EQ(audit.dropped(), 0u);
  // Exactly one decision per submitted command...
  EXPECT_EQ(audit.decisions(), r.submitted);
  // ...reconciled exactly once per client-observed commit; the rest are
  // still pending (in flight or abandoned at the end of the run).
  EXPECT_EQ(audit.reconciled(), r.client_committed);
  EXPECT_EQ(audit.pending(), r.client_abandoned + r.client_inflight_end);
  EXPECT_EQ(audit.fast_path() + audit.slow_path() + audit.dm_commits(),
            audit.reconciled());

  std::int64_t regret_sum = 0;
  for (const obs::DecisionRecord& rec : audit.records()) {
    EXPECT_EQ(rec.outcome == obs::DecisionOutcome::kPending, false);
    ASSERT_NE(rec.realized, Duration::max());
    // Realized latency is commit minus decision time (both virtual).
    EXPECT_EQ(rec.realized, rec.committed_at - rec.decided_at);
    if (rec.error_valid) {
      const Duration chosen = rec.chosen == obs::DecisionPath::kDfp ? rec.predicted_dfp
                                                                    : rec.predicted_dm;
      ASSERT_NE(chosen, Duration::max());
      EXPECT_EQ(rec.error_ns, rec.realized.nanos() - chosen.nanos());
    }
    if (rec.regret_valid) {
      // The oracle-regret identity, recomputed from the record's own
      // estimates: regret == realized - min(finite estimates), exactly.
      Duration best = Duration::max();
      if (rec.predicted_dfp != Duration::max()) best = rec.predicted_dfp;
      if (rec.predicted_dm != Duration::max() && rec.predicted_dm < best) {
        best = rec.predicted_dm;
      }
      ASSERT_NE(best, Duration::max());
      EXPECT_EQ(rec.hindsight_best_ns, best.nanos());
      EXPECT_EQ(rec.regret_ns, rec.realized.nanos() - rec.hindsight_best_ns);
      regret_sum += rec.regret_ns;
    }
    // Attribution only ever points at a replica that rejected late.
    if (rec.blamed.valid()) {
      EXPECT_EQ(rec.outcome, obs::DecisionOutcome::kSlowPath);
      EXPECT_GT(rec.blamed_overshoot_ns, 0);
    }
  }
  EXPECT_EQ(regret_sum, audit.regret_sum_ns());
}

TEST(PredictRun, AutoModeReconcilesEveryCommit) {
  const RunResult r = run_domino(audit_scenario());
  ASSERT_GT(r.client_committed, 0u);
  check_audit_invariants(r);
  // Once the probe feeds warm up every record carries a finite hindsight
  // best; only the first handful (both estimates still max()) are exempt.
  EXPECT_GT(r.predict->regret_samples(), 0u);
  EXPECT_LE(r.predict->regret_samples(), r.predict->reconciled());
  EXPECT_GE(static_cast<double>(r.predict->regret_samples()),
            0.8 * static_cast<double>(r.predict->reconciled()));
  EXPECT_GT(r.predict->fast_path(), 0u);
  // predict.* metrics agree with the audit's own aggregates.
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_EQ(r.metrics->counter("predict.decisions").value(), r.predict->decisions());
  EXPECT_EQ(r.metrics->counter("predict.reconciled").value(), r.predict->reconciled());
}

TEST(PredictRun, ForcedModesStillAudit) {
  for (const auto mode :
       {core::ClientConfig::Mode::kDfpOnly, core::ClientConfig::Mode::kDmOnly}) {
    Scenario s = audit_scenario();
    s.domino_mode = mode;
    const RunResult r = run_domino(s);
    ASSERT_GT(r.client_committed, 0u);
    check_audit_invariants(r);
    const auto expected = mode == core::ClientConfig::Mode::kDfpOnly
                              ? obs::DecisionMode::kDfpForced
                              : obs::DecisionMode::kDmForced;
    for (const obs::DecisionRecord& rec : r.predict->records()) {
      EXPECT_EQ(rec.mode, expected);
    }
    if (mode == core::ClientConfig::Mode::kDmOnly) {
      EXPECT_EQ(r.predict->fast_path(), 0u);
      EXPECT_EQ(r.predict->dm_commits(), r.predict->reconciled());
    }
  }
}

TEST(PredictRun, AdaptiveModeAudits) {
  Scenario s = audit_scenario();
  s.domino_adaptive = true;
  s.additional_delay = milliseconds(-4);  // stress the deadline so misses occur
  const RunResult r = run_domino(s);
  ASSERT_GT(r.client_committed, 0u);
  check_audit_invariants(r);
}

TEST(PredictRun, CalibrationRowsComeFromLiveProbes) {
  const RunResult r = run_domino(audit_scenario());
  // 3 replicas probing 2 peers each + 3 clients probing 3 replicas each.
  ASSERT_EQ(r.calibration.size(), 3u * 2u + 3u * 3u);
  std::uint64_t samples = 0;
  for (const obs::CalibrationRow& row : r.calibration) {
    EXPECT_NE(row.owner, row.target);
    EXPECT_GT(row.samples, 0u);
    EXPECT_LE(row.covered, row.samples);
    EXPECT_GE(row.coverage(), 0.0);
    EXPECT_LE(row.coverage(), 1.0);
    samples += row.samples;
  }
  // The p95 estimator should cover most realized arrivals overall.
  ASSERT_NE(r.metrics, nullptr);
  std::uint64_t covered = 0;
  for (const obs::CalibrationRow& row : r.calibration) covered += row.covered;
  EXPECT_GT(static_cast<double>(covered), 0.5 * static_cast<double>(samples));
}

TEST(PredictRun, OtherProtocolsLeaveTheAuditEmpty) {
  const Scenario s = audit_scenario();
  for (const Protocol p : {Protocol::kMultiPaxos, Protocol::kMencius, Protocol::kEPaxos,
                           Protocol::kFastPaxos}) {
    const RunResult r = run_protocol(p, s);
    ASSERT_NE(r.predict, nullptr) << protocol_name(p);
    EXPECT_EQ(r.predict->decisions(), 0u) << protocol_name(p);
    EXPECT_TRUE(r.calibration.empty()) << protocol_name(p);
  }
}

TEST(PredictRun, DisabledByDefaultAndNullWhenOff) {
  Scenario s = audit_scenario();
  s.prediction_audit = false;
  const RunResult r = run_domino(s);
  EXPECT_EQ(r.predict, nullptr);
  EXPECT_TRUE(r.calibration.empty());
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_EQ(r.metrics->find_counter("predict.decisions"), nullptr);
  // The report omits the predict/calibration blocks entirely.
  EXPECT_EQ(report_json(Protocol::kDomino, s, r).find("\"predict\""), std::string::npos);
}

TEST(PredictRun, SameSeedExportsAreByteIdentical) {
  const Scenario s = audit_scenario();
  const RunResult a = run_domino(s);
  const RunResult b = run_domino(s);
  ASSERT_GT(a.predict->reconciled(), 0u);
  EXPECT_EQ(obs::decisions_to_csv(a.predict->records(), "Domino"),
            obs::decisions_to_csv(b.predict->records(), "Domino"));
  EXPECT_EQ(obs::calibration_to_csv(a.calibration), obs::calibration_to_csv(b.calibration));
  EXPECT_EQ(report_json(Protocol::kDomino, s, a), report_json(Protocol::kDomino, s, b));
}

TEST(PredictRun, WritesSampleCsvsForTooling) {
  // scripts/check.sh --predict smoke-feeds these to predict_summary.py.
  const Scenario s = audit_scenario();
  const RunResult r = run_domino(s);
  ASSERT_NE(r.predict, nullptr);
  const std::string decisions = obs::decisions_to_csv(r.predict->records(), "Domino");
  const std::string calibration = obs::calibration_to_csv(r.calibration);
  std::ofstream out("predict_sample.csv", std::ios::binary);
  ASSERT_TRUE(out.good());
  out << decisions;
  out.close();
  std::ofstream cal("calibration_sample.csv", std::ios::binary);
  ASSERT_TRUE(cal.good());
  cal << calibration;
  cal.close();
  EXPECT_GT(decisions.size(), 100u);
  EXPECT_GT(calibration.size(), 60u);
}

TEST(PredictRun, AuditedRunMatchesUnauditedResults) {
  // The audit is pure observation: enabling it must not change what the
  // protocol does (same commits, same packet count, same latency stats).
  Scenario s = audit_scenario();
  const RunResult audited = run_domino(s);
  s.prediction_audit = false;
  const RunResult plain = run_domino(s);
  EXPECT_EQ(audited.committed, plain.committed);
  EXPECT_EQ(audited.packets_sent, plain.packets_sent);
  EXPECT_EQ(audited.bytes_sent, plain.bytes_sent);
  EXPECT_EQ(audited.commit_ms.mean(), plain.commit_ms.mean());
  EXPECT_EQ(audited.fast_path, plain.fast_path);
}

}  // namespace
}  // namespace domino::harness
