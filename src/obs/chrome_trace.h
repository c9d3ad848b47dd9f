// Chrome trace_event JSON export (viewable in Perfetto / chrome://tracing).
//
// One process (pid 1), one lane (tid) per node: spans become "X" complete
// events on their node's lane, message edges become flow arrows ("s"/"f")
// linking the sending span to the handler span they opened, and the
// TraceRecorder's incidents (crashes, partitions, degradations, client
// retries) become instant events — on the affected node's lane when the
// event names a node, global otherwise; a recovery becomes a slice.
//
// Deterministic: events are emitted in store order with virtual-time
// stamps, so two runs with the same seed produce byte-identical JSON.
#pragma once

#include <string>

#include "obs/span.h"
#include "obs/trace.h"

namespace domino::obs {

/// Either argument may be null; a null SpanStore yields no span/flow
/// events, a null TraceRecorder no incident instants. Always returns a valid
/// JSON object ({"displayTimeUnit":"ms","traceEvents":[...]}).
[[nodiscard]] std::string chrome_trace_json(const SpanStore* spans,
                                            const TraceRecorder* trace);

}  // namespace domino::obs
