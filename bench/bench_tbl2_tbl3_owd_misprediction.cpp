// Tables 2 and 3: 99th percentile misprediction value (ms) of request
// arrival times for every directed Globe datacenter pair, comparing the
// naive half-RTT estimator (Table 2) with Domino's replica-timestamp OWD
// technique (Table 3).
//
// The paper's testbed exhibits asymmetric routing (most dramatically into
// NSW, where half-RTT mispredicts by hundreds of ms to seconds) and NTP-
// level clock skew. Each directed pair is two wan::TraceGenerator series,
// forward and reverse, split from the pair's RTT by a per-pair forward
// share, and paired into probe samples under the two sites' clock offset:
// moderate asymmetry everywhere, extreme asymmetry + skew on the NSW-bound
// paths.
#include <cstdio>

#include "bench_util.h"
#include "harness/trace.h"
#include "net/topology.h"
#include "wan/delay_trace.h"
#include "wan/generator.h"

int main() {
  using namespace domino;
  bench::print_header("OWD misprediction: half-RTT vs replica-timestamp",
                      "paper Tables 2 and 3, Section 5.4");

  const net::Topology topo = net::Topology::globe();
  const std::size_t n = topo.size();

  // Per-datacenter clock offsets: NTP quality (a few ms) everywhere except
  // NSW, whose clock runs far behind — the paper's Table 2 NSW row (half-RTT
  // mispredictions of 0.1 s - 2.3 s out of NSW, tens of ms into NSW) is the
  // signature of a large skew/route anomaly at that site that only the
  // replica-timestamp technique absorbs. Routes into NSW are also
  // forward-heavy (disjoint forward/reverse paths).
  const Duration clock_offset[] = {milliseconds(0),  milliseconds(2),   milliseconds(-2),
                                   milliseconds(-600), milliseconds(-1), milliseconds(1)};

  auto forward_share = [&](std::size_t from, std::size_t to) {
    if (topo.name(from) == "NSW") return 0.35;  // reverse-heavy out of NSW
    if (topo.name(to) == "NSW") return 0.75;    // forward-heavy into NSW
    return 0.58;                                // mild asymmetry elsewhere
  };

  // One direction of a pair: a stationary wan::TraceGenerator series over
  // 60 s of 10 ms probes, with small rare spikes.
  auto direction = [](Duration base, std::uint64_t seed) {
    wan::GeneratorConfig g;
    g.base = base;
    g.seed = seed;
    g.duration = seconds(60);
    g.spike_prob = 0.0005;
    g.spike_mean = milliseconds(4);
    return wan::TraceGenerator(g).generate();
  };

  std::vector<std::vector<double>> half(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> owd(n, std::vector<double>(n, 0.0));

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const Duration forward_base = scale(topo.rtt(i, j), forward_share(i, j));
      const std::uint64_t seed = 1000 + i * 17 + j;  // reverse: seed + 500
      const auto trace = harness::probe_samples_from_wan(
          direction(forward_base, seed), direction(topo.rtt(i, j) - forward_base, seed + 500),
          clock_offset[j] - clock_offset[i]);
      half[i][j] = harness::evaluate_predictions(trace, harness::OwdEstimator::kHalfRtt,
                                                 seconds(1), 95.0)
                       .p99_misprediction_ms;
      owd[i][j] = harness::evaluate_predictions(
                      trace, harness::OwdEstimator::kReplicaTimestamp, seconds(1), 95.0)
                      .p99_misprediction_ms;
    }
  }

  auto print_matrix = [&](const char* title, const std::vector<std::vector<double>>& m) {
    std::printf("\n%s\nfrom\\to ", title);
    for (std::size_t j = 0; j < n; ++j) std::printf("%8s", topo.name(j).c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("%-7s ", topo.name(i).c_str());
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) {
          std::printf("%8s", "-");
        } else {
          std::printf("%8.2f", m[i][j]);
        }
      }
      std::printf("\n");
    }
  };

  print_matrix("Table 2 equivalent — p99 misprediction (ms), half-RTT estimator:", half);
  print_matrix("Table 3 equivalent — p99 misprediction (ms), Domino's OWD technique:", owd);

  double max_half = 0, max_owd = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      max_half = std::max(max_half, half[i][j]);
      max_owd = std::max(max_owd, owd[i][j]);
    }
  }
  std::printf("\nmax p99 misprediction: half-RTT %.1f ms vs OWD %.1f ms\n", max_half, max_owd);
  std::printf("paper: half-RTT up to 2343.97 ms (NSW row), OWD technique <= 6.24 ms\n");
  std::printf("shape holds (OWD stays in single-digit ms, half-RTT off by orders of "
              "magnitude): %s\n",
              (max_owd < 10.0 && max_half > 50 * max_owd) ? "yes" : "NO");

  // Score both estimators on the checked-in WAN fixtures: on the stationary
  // trace the replica-timestamp technique holds its single-digit-ms p99
  // misprediction, while on the drifting trace (route flaps, congestion
  // epochs) even the better estimator's residual grows — non-stationarity,
  // not estimator choice, becomes the binding constraint.
  {
    const std::string trace_dir = DOMINO_TRACE_DIR;
    const wan::DelayTrace stationary = wan::DelayTrace::load(trace_dir + "/globe_va.csv");
    const wan::DelayTrace drifting = wan::DelayTrace::load(trace_dir + "/va_wa_drift.csv");
    std::printf("\nfixture traces, VA -> WA, p95 / 1 s window:\n");
    std::printf("  trace        estimator          p99 misprediction (ms)  correct rate\n");
    struct Row {
      const char* trace_name;
      const wan::DelayTrace* trace;
      const char* est_name;
      harness::OwdEstimator est;
    };
    const Row rows[] = {
        {"stationary", &stationary, "half-RTT", harness::OwdEstimator::kHalfRtt},
        {"stationary", &stationary, "replica-ts", harness::OwdEstimator::kReplicaTimestamp},
        {"drifting", &drifting, "half-RTT", harness::OwdEstimator::kHalfRtt},
        {"drifting", &drifting, "replica-ts", harness::OwdEstimator::kReplicaTimestamp},
    };
    double stationary_owd = 0, drifting_owd = 0;
    for (const Row& row : rows) {
      const auto probes = harness::probe_samples_from_wan(
          *row.trace->samples("VA", "WA"), *row.trace->samples("WA", "VA"));
      const auto outcome =
          harness::evaluate_predictions(probes, row.est, seconds(1), 95.0);
      std::printf("  %-12s %-18s %22.2f %12.1f%%\n", row.trace_name, row.est_name,
                  outcome.p99_misprediction_ms, outcome.correct_rate * 100);
      if (row.est == harness::OwdEstimator::kReplicaTimestamp) {
        (row.trace == &stationary ? stationary_owd : drifting_owd) =
            outcome.p99_misprediction_ms;
      }
    }
    std::printf("  drift inflates the replica-timestamp residual (%.2f -> %.2f ms): %s\n",
                stationary_owd, drifting_owd,
                drifting_owd > stationary_owd ? "yes" : "NO");
  }

  // In-protocol check of the same claim: on a live Globe deployment the
  // replica-timestamp estimator's calibration coverage stays near the
  // configured percentile on every directed pair, and the audit prices the
  // residual arrival overshoots in commit latency (oracle regret).
  harness::Scenario s = bench::globe_scenario();
  s.rps = 200;
  s.warmup = seconds(2);
  s.measure = seconds(8);
  s.seed = 77;
  s.measurement_percentile = 95.0;
  bench::print_prediction_audit(harness::Protocol::kDomino, s,
                                "Globe / replica-timestamp OWD");
  return 0;
}
