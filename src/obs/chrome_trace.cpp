#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <set>

#include "wire/message.h"

namespace domino::obs {

namespace {

void append_f(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(buf, static_cast<std::size_t>(std::min(n, static_cast<int>(sizeof buf) - 1)));
  }
}

/// Microsecond timestamp with nanosecond precision kept in the fraction.
double us(TimePoint t) { return static_cast<double>(t.nanos()) / 1e3; }
double us(Duration d) { return static_cast<double>(d.nanos()) / 1e3; }

/// Lane label: the harness numbers replicas from 0 and clients from 1000.
const char* node_kind(NodeId n) { return n.value() >= 1000 ? "client" : "replica"; }

/// True when the event's node/peer fields hold node ids (not dc indices).
bool node_scoped(EventKind k) {
  switch (k) {
    case EventKind::kNodeCrash:
    case EventKind::kNodeRecover:
    case EventKind::kClientRetry:
    case EventKind::kClientAbandon:
    case EventKind::kRecoveryStart:
    case EventKind::kRecoveryDone: return true;
    default: return false;
  }
}

}  // namespace

std::string chrome_trace_json(const SpanStore* spans, const TraceRecorder* trace) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&out, &first] {
    if (!first) out += ',';
    first = false;
  };

  // Lane metadata: name every node that appears, in id order so the lanes
  // (and the bytes) are stable across runs.
  std::set<std::uint32_t> lanes;
  if (spans != nullptr) {
    for (const Span& s : spans->spans()) lanes.insert(s.node.value());
  }
  if (trace != nullptr) {
    for (const TraceEvent& e : trace->events()) {
      if (node_scoped(e.kind) && e.node.valid()) lanes.insert(e.node.value());
    }
  }
  for (const std::uint32_t lane : lanes) {
    sep();
    append_f(out,
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%lu,"
             "\"args\":{\"name\":\"%s %lu\"}}",
             static_cast<unsigned long>(lane), node_kind(NodeId{lane}),
             static_cast<unsigned long>(lane));
  }

  if (spans != nullptr) {
    for (const Span& s : spans->spans()) {
      sep();
      append_f(out,
               "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%.3f,"
               "\"dur\":%.3f,\"pid\":1,\"tid\":%lu,\"args\":{\"trace\":%llu,"
               "\"span\":%llu,\"parent\":%llu}}",
               s.name, us(s.begin), us(s.end - s.begin),
               static_cast<unsigned long>(s.node.value()),
               static_cast<unsigned long long>(s.trace),
               static_cast<unsigned long long>(s.id),
               static_cast<unsigned long long>(s.parent));
    }
    std::int32_t edge_id = 0;
    for (const MsgEdge& e : spans->edges()) {
      const char* name =
          wire::message_type_name(static_cast<wire::MessageType>(e.msg_type));
      sep();
      append_f(out,
               "{\"name\":\"%s\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":%ld,"
               "\"ts\":%.3f,\"pid\":1,\"tid\":%lu}",
               name, static_cast<long>(edge_id), us(e.sent_at),
               static_cast<unsigned long>(e.src.value()));
      sep();
      append_f(out,
               "{\"name\":\"%s\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\","
               "\"id\":%ld,\"ts\":%.3f,\"pid\":1,\"tid\":%lu}",
               name, static_cast<long>(edge_id), us(e.recv_at),
               static_cast<unsigned long>(e.dst.value()));
      ++edge_id;
    }
  }

  // Incident instants. Link/route events carry dc indices rather than
  // node ids, so they get global scope instead of a node lane.
  if (trace != nullptr) {
    for (const TraceEvent& e : trace->events()) {
      sep();
      if (e.kind == EventKind::kRecoveryDone) {
        // The rejoin event carries the whole recovery duration; render it as
        // a complete ("X") slice ending at the event, on the node's lane.
        append_f(out,
                 "{\"name\":\"recovery\",\"cat\":\"recovery\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%lu,"
                 "\"args\":{\"rejoin_ns\":%lld}}",
                 us(e.at) - static_cast<double>(e.value) / 1e3,
                 static_cast<double>(e.value) / 1e3,
                 static_cast<unsigned long>(e.node.value()),
                 static_cast<long long>(e.value));
        continue;
      }
      if (node_scoped(e.kind)) {
        append_f(out,
                 "{\"name\":\"%s\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\","
                 "\"ts\":%.3f,\"pid\":1,\"tid\":%lu,\"args\":{\"value\":%lld}}",
                 event_kind_name(e.kind), us(e.at),
                 static_cast<unsigned long>(e.node.value()),
                 static_cast<long long>(e.value));
      } else {
        append_f(out,
                 "{\"name\":\"%s\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\","
                 "\"ts\":%.3f,\"pid\":1,\"tid\":0,\"args\":{\"src_dc\":%lu,"
                 "\"dst_dc\":%lu,\"value\":%lld}}",
                 event_kind_name(e.kind), us(e.at),
                 static_cast<unsigned long>(e.node.value()),
                 static_cast<unsigned long>(e.peer.value()),
                 static_cast<long long>(e.value));
      }
    }
  }

  out += "]}";
  return out;
}

}  // namespace domino::obs
