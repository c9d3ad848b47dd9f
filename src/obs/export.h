// Deterministic serialization of observability data.
//
// All output is byte-stable for a given run: metrics iterate in name order,
// trace events in recording order, and numbers are formatted with fixed
// printf conversions (no locale, no pointer values, no wall clock).
#pragma once

#include <string>
#include <string_view>

#include "obs/json.h"  // json_escape / write_file / number formatting
#include "obs/metrics.h"
#include "obs/trace.h"

namespace domino::obs {

/// {"counters":{...},"gauges":{...},"histograms":{...}}
[[nodiscard]] std::string metrics_to_json(const MetricsRegistry& registry);

/// JSON array of event objects, oldest first.
[[nodiscard]] std::string trace_to_json(const TraceRecorder& trace);

}  // namespace domino::obs
