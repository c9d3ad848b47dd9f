// The two whole-run scenarios the golden digests pin (RunnerGolden and
// SpanGolden): a short seeded Globe run, and the same run with faults.
#pragma once

#include "harness/runner.h"

namespace domino::test {

/// A short seeded Globe run (Figure 8c placement). The prediction audit is
/// on so Domino's calibration rows are part of the digest; it only records.
inline harness::Scenario globe_scenario() {
  harness::Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.client_dcs = {0, 1, 2, 3, 4, 5};
  s.rps = 50;
  s.warmup = seconds(1);
  s.measure = seconds(2);
  s.cooldown = seconds(2);
  s.seed = 13;
  s.prediction_audit = true;
  return s;
}

/// The same run with durable syncs on the critical path, client retries, an
/// amnesiac follower crash, and a two-way partition between a replica site
/// and a client-only site.
inline harness::Scenario faulted_scenario() {
  harness::Scenario s = globe_scenario();
  s.sync_latency = milliseconds(2);
  s.amnesia_crashes = true;
  s.client_request_timeout = milliseconds(600);
  s.client_max_retries = 6;
  const TimePoint w0 = TimePoint::epoch() + s.warmup;
  s.faults.crash_for(w0 + milliseconds(300), NodeId{1}, milliseconds(250));
  s.faults.partition_both_for(w0 + milliseconds(900), s.topology.index_of("NSW"),
                              s.topology.index_of("SG"), milliseconds(400));
  return s;
}

}  // namespace domino::test
