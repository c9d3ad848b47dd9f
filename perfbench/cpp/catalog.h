// Names and units of every metric the benchmark prints.
#pragma once

#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// Names accepted by --workload, in the order the benchmark documents them.
const std::vector<std::string>& workload_names();

/// Protocol keys used in metric names, in the fixed order of the metric list.
const std::vector<std::string>& protocol_keys();

/// Critical-path phases reported as core.phase_ms.<phase>.
const std::vector<std::string>& phase_names();

struct MetricName {
  std::string name;
  std::string unit;
};

/// Printed with --trace 0 on every workload; never 0.
std::vector<MetricName> end_to_end_catalog();

/// Printed with --trace 1 on every workload; 0 where a workload does not
/// exercise the layer.
std::vector<MetricName> per_layer_catalog();

/// Set every per-layer metric to 0, so a workload overwrites only what it
/// measures and still prints the full catalog.
void zero_layers(Report& report);

}  // namespace perfbench
