#include "obs/export.h"

namespace domino::obs {
namespace {

void append_histogram_json(std::string& out, const Histogram& h) {
  appendf(out, "{\"count\":%llu,\"min\":%lld,\"max\":%lld,\"mean\":%.6g",
           static_cast<unsigned long long>(h.count()), static_cast<long long>(h.min()),
           static_cast<long long>(h.max()), h.mean());
  appendf(out, ",\"p50\":%lld,\"p95\":%lld,\"p99\":%lld",
           static_cast<long long>(h.percentile(50)), static_cast<long long>(h.percentile(95)),
           static_cast<long long>(h.percentile(99)));
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    if (h.bucket_count(i) == 0) continue;
    if (!first) out += ',';
    first = false;
    appendf(out, "[%lld,%llu]", static_cast<long long>(Histogram::bucket_upper_bound(i)),
             static_cast<unsigned long long>(h.bucket_count(i)));
  }
  out += "]}";
}

std::string request_str(const RequestId& id) {
  return id.client.valid() ? id.to_string() : "-";
}

}  // namespace

std::string metrics_to_json(const MetricsRegistry& registry) {
  std::string counters, gauges, histograms;
  registry.visit([&](const std::string& name, const Counter* c, const Gauge* g,
                     const Histogram* h) {
    if (c != nullptr) {
      if (!counters.empty()) counters += ',';
      appendf(counters, "\"%s\":%llu", json_escape(name).c_str(),
               static_cast<unsigned long long>(c->value()));
    } else if (g != nullptr) {
      if (!gauges.empty()) gauges += ',';
      appendf(gauges, "\"%s\":{\"value\":%lld,\"max\":%lld}", json_escape(name).c_str(),
               static_cast<long long>(g->value()), static_cast<long long>(g->max()));
    } else if (h != nullptr) {
      if (!histograms.empty()) histograms += ',';
      appendf(histograms, "\"%s\":", json_escape(name).c_str());
      append_histogram_json(histograms, *h);
    }
  });
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges + "},\"histograms\":{" +
         histograms + "}}";
}

std::string trace_to_json(const TraceRecorder& trace) {
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& e : trace.events()) {
    if (!first) out += ',';
    first = false;
    appendf(out,
             "{\"at\":%lld,\"kind\":\"%s\",\"node\":\"%s\",\"peer\":\"%s\","
             "\"req\":\"%s\",\"value\":%lld}",
             static_cast<long long>(e.at.nanos()), event_kind_name(e.kind),
             node_str(e.node).c_str(), node_str(e.peer).c_str(),
             request_str(e.request).c_str(), static_cast<long long>(e.value));
  }
  out += ']';
  return out;
}

}  // namespace domino::obs
