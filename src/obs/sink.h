// The wiring point between instrumented code and the observability layer.
//
// A Sink is a set of optional destinations (metrics registry, incident
// log, span store, prediction audit). Instrumented components copy the
// sink once at construction / bind time, create metric handles through it,
// and hand incidents to `record()`. A default-constructed Sink disables
// everything at the cost of one branch per instrumentation point.
#pragma once

#include "obs/metrics.h"
#include "obs/predict.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace domino::obs {

struct Sink {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  /// Causal per-command span store (obs/span.h); null disables span
  /// collection and trace-context piggybacking on the wire.
  SpanStore* spans = nullptr;
  /// Prediction audit (obs/predict.h); null disables decision-record
  /// capture at the Domino client's choice point. Never touches the wire.
  PredictionAudit* predict = nullptr;

  [[nodiscard]] bool active() const {
    return metrics != nullptr || trace != nullptr || spans != nullptr ||
           predict != nullptr;
  }
  [[nodiscard]] bool spans_enabled() const { return spans != nullptr; }

  /// Handle factories: null handles when the registry is disabled.
  [[nodiscard]] CounterHandle counter(std::string_view name) const {
    return metrics != nullptr ? CounterHandle{&metrics->counter(name)} : CounterHandle{};
  }
  [[nodiscard]] GaugeHandle gauge(std::string_view name) const {
    return metrics != nullptr ? GaugeHandle{&metrics->gauge(name)} : GaugeHandle{};
  }
  [[nodiscard]] HistogramHandle histogram(std::string_view name) const {
    return metrics != nullptr ? HistogramHandle{&metrics->histogram(name)}
                              : HistogramHandle{};
  }

  void record(const TraceEvent& event) const {
    if (trace != nullptr) trace->record(event);
  }
};

}  // namespace domino::obs
