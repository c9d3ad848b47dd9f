// The benchmark's four workloads. Each fills a Report: end-to-end metrics
// with tracing off, or, on the traced pass, the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Repository root: where bench/traces/ lives.
  std::string root = ".";
  /// Where the traced pass writes its spans (JSON lines).
  std::string spans_path;
};

/// globe_paper, cluster_load and faults_trace (harness::run_protocol).
void run_simulated(const Options& options, Report& report);

/// tcp_loopback (core::Replica / core::Client over net::tcp::TcpContext).
void run_tcp_loopback(const Options& options, Report& report);

/// The rpc.* and tcp.* layer metrics from `seconds` of a traced loopback
/// cluster, for the traced pass of a simulated workload.
void measure_tcp_layers(std::uint64_t seed, double seconds, Report& report);

}  // namespace perfbench
