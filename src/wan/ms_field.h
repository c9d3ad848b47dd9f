// The two halves of DelayTrace ingestion's millisecond-field parser. Not
// part of the DelayTrace interface: delay_trace.cpp uses them, and a test
// holds one against the other.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace domino::wan::detail {

/// Exact fixed-point path for the writer's form: an optional '-', 1-9
/// integer digits, then optionally '.' and 1-6 fraction digits; yields the
/// digits' value times 10^(6 - fraction digits) ns. nullopt for any other
/// syntax.
[[nodiscard]] std::optional<std::int64_t> exact_ms_to_ns(std::string_view field) noexcept;

/// General path: std::from_chars, then llround of the value times 1e6.
/// Throws TraceError ("<name> is empty", "... is not a number", "... is not
/// finite", "... out of range").
[[nodiscard]] std::int64_t general_ms_to_ns(std::string_view field, const char* name);

}  // namespace domino::wan::detail
