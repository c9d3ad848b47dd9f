// Shared deterministic JSON/string-building helpers.
//
// One home for the low-level pieces every exporter needs — printf-style
// string appending, fixed-width integer formatting, JSON string escaping
// and whole-file writes — so the observability exporters (obs/export.cpp,
// obs/timeseries.cpp), the harness report (harness/run_report.cpp) and the
// bench binaries (bench/bench_util.h) all format numbers identically.
// Determinism rules: fixed printf conversions only, no locale, no wall
// clock, no pointer values.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/ids.h"

namespace domino::obs {

/// Append printf-formatted text to `out`, whatever its length.
void appendf(std::string& out, const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

/// Append a decimal unsigned 64-bit integer ("%llu").
void append_u64(std::string& out, std::uint64_t v);

/// Append a decimal signed 64-bit integer ("%lld").
void append_i64(std::string& out, std::int64_t v);

/// A node id as exported ("n3"), or "-" for an invalid id.
[[nodiscard]] std::string node_str(NodeId id);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Write `content` to `path`; returns false on I/O failure.
bool write_file(const std::string& path, std::string_view content);

}  // namespace domino::obs
