// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--root <repo root>] [--spans <file>]
//
// Prints a human-readable report, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A failed correctness
// check prints the failures and exits 1 without a JSON line.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "catalog.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <globe_paper|cluster_load|faults_trace|"
               "tcp_loopback> --seed <n> --seconds <s> --trace <0|1> [--root <dir>] "
               "[--spans <file>]\n");
}

bool parse(int argc, char** argv, perfbench::Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--root") {
      o.root = value;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0 || !(o.seconds > 0)) return false;
  for (const std::string& w : perfbench::workload_names()) {
    if (w == o.workload) return true;
  }
  return false;
}

void print_json(const perfbench::Report& report, bool trace) {
  const auto& metrics = trace ? report.layers() : report.e2e();
  std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(report.attempted()) +
                    ", \"failed\": " + std::to_string(report.failed()) + ", \"metrics\": {";
  bool first = true;
  const auto catalog = trace ? perfbench::per_layer_catalog() : perfbench::end_to_end_catalog();
  for (const perfbench::MetricName& m : catalog) {
    const auto it = metrics.find(m.name);
    const double v = it == metrics.end() ? 0.0 : it->second.value;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), std::isfinite(v) ? v : 0.0,
                  m.unit.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  perfbench::Report report;
  try {
    if (options.workload == "tcp_loopback") {
      perfbench::run_tcp_loopback(options, report);
    } else {
      perfbench::run_simulated(options, report);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  if (report.attempted() == 0) report.fail("no request was attempted");
  if (!report.correct()) {
    std::fflush(stdout);
    for (const std::string& f : report.failures()) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    return 1;
  }
  if (!options.trace) {
    for (const perfbench::MetricName& m : perfbench::end_to_end_catalog()) {
      const auto it = report.e2e().find(m.name);
      if (it == report.e2e().end() || !(it->second.value > 0)) {
        std::fprintf(stderr, "FAILED: end-to-end metric %s was not measured\n", m.name.c_str());
        return 1;
      }
    }
  }
  std::printf("peak_rss_mb %.1f MB, attempted %" PRIu64 ", failed %" PRIu64 "\n",
              perfbench::peak_rss_mb(), report.attempted(), report.failed());
  std::fflush(stdout);
  print_json(report, options.trace);
  return 0;
}
