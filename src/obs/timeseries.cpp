#include "obs/timeseries.h"

#include "obs/json.h"

namespace domino::obs {
namespace {

// Bring a series that first appeared at window `upto` in line with the
// window count: leading windows it never saw become zero entries.
template <typename Vec>
void pad_to(Vec& v, std::size_t upto) {
  if (v.size() < upto) v.resize(upto);
}

double ms(TimePoint t) { return static_cast<double>(t.nanos()) / 1e6; }

}  // namespace

void Timeseries::sample(const MetricsRegistry& registry, TimePoint now) {
  if (!windows_.empty() && now <= windows_.back().end) return;
  if (windows_.size() >= max_windows_) {
    ++dropped_windows_;
    return;
  }
  const TimePoint start = windows_.empty() ? TimePoint{} : windows_.back().end;
  windows_.push_back(Window{start, now});
  const std::size_t w = windows_.size() - 1;

  registry.visit([&](const std::string& name, const Counter* c, const Gauge* g,
                     const Histogram* h) {
    if (c != nullptr) {
      auto& s = counters_[name];
      pad_to(s.deltas, w);
      s.deltas.push_back(c->value() - s.prev);
      s.prev = c->value();
    } else if (g != nullptr) {
      auto& s = gauges_[name];
      pad_to(s.values, w);
      s.values.push_back(g->value());
    } else if (h != nullptr) {
      auto& s = histograms_[name];
      pad_to(s.windows, w);
      const Histogram d = h->since(s.prev);
      s.windows.push_back(WindowHistogram{d.count(), d.sum(), d.percentile(50),
                                          d.percentile(95), d.percentile(99)});
      s.prev = *h;
    }
  });
}

const Timeseries::CounterSeries* Timeseries::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Timeseries::HistogramSeries* Timeseries::find_histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string timeseries_to_csv(const Timeseries& ts) {
  std::string out = "window,start_ns,end_ns,kind,name,field,value\n";
  const auto& windows = ts.windows();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto prefix = [&](std::string_view kind, const std::string& name,
                            const char* field) {
      appendf(out, "%llu,%lld,%lld,%.*s,%s,%s,", static_cast<unsigned long long>(w),
              static_cast<long long>(windows[w].start.nanos()),
              static_cast<long long>(windows[w].end.nanos()),
              static_cast<int>(kind.size()), kind.data(), name.c_str(), field);
    };
    for (const auto& [name, s] : ts.counters()) {
      prefix("counter", name, "delta");
      append_u64(out, w < s.deltas.size() ? s.deltas[w] : 0);
      out += '\n';
    }
    for (const auto& [name, s] : ts.gauges()) {
      prefix("gauge", name, "value");
      append_i64(out, w < s.values.size() ? s.values[w] : 0);
      out += '\n';
    }
    for (const auto& [name, s] : ts.histograms()) {
      const WindowHistogram wh =
          w < s.windows.size() ? s.windows[w] : WindowHistogram{};
      prefix("histogram", name, "count");
      append_u64(out, wh.count);
      out += '\n';
      if (wh.count == 0) continue;
      prefix("histogram", name, "mean");
      appendf(out, "%.3f\n", wh.mean());
      prefix("histogram", name, "p50");
      append_i64(out, wh.p50);
      out += '\n';
      prefix("histogram", name, "p95");
      append_i64(out, wh.p95);
      out += '\n';
      prefix("histogram", name, "p99");
      append_i64(out, wh.p99);
      out += '\n';
    }
  }
  return out;
}

void append_timeseries_json(std::string& out, const Timeseries& ts) {
  appendf(out, "{\"windows\":%llu,\"dropped_windows\":%llu",
          static_cast<unsigned long long>(ts.window_count()),
          static_cast<unsigned long long>(ts.dropped_windows()));
  out += ",\"window_end_ms\":[";
  bool first = true;
  for (const auto& w : ts.windows()) {
    if (!first) out += ',';
    first = false;
    appendf(out, "%.3f", ms(w.end));
  }
  out += "],\"metrics\":{";
  first = true;
  const std::size_t n = ts.window_count();
  const auto key = [&](const std::string& name, const char* kind) {
    if (!first) out += ',';
    first = false;
    appendf(out, "\"%s\":{\"kind\":\"%s\"", json_escape(name).c_str(), kind);
  };
  const auto array_u64 = [&](const char* field, const auto& vec, auto get) {
    appendf(out, ",\"%s\":[", field);
    for (std::size_t w = 0; w < n; ++w) {
      if (w != 0) out += ',';
      if (w < vec.size()) {
        get(vec[w]);
      } else {
        out += '0';
      }
    }
    out += ']';
  };
  for (const auto& [name, s] : ts.counters()) {
    key(name, "counter");
    array_u64("delta", s.deltas, [&](std::uint64_t v) { append_u64(out, v); });
    out += '}';
  }
  for (const auto& [name, s] : ts.gauges()) {
    key(name, "gauge");
    array_u64("value", s.values, [&](std::int64_t v) { append_i64(out, v); });
    out += '}';
  }
  for (const auto& [name, s] : ts.histograms()) {
    key(name, "histogram");
    array_u64("count", s.windows, [&](const WindowHistogram& wh) {
      append_u64(out, wh.count);
    });
    array_u64("mean", s.windows, [&](const WindowHistogram& wh) {
      appendf(out, "%.3f", wh.mean());
    });
    array_u64("p50", s.windows, [&](const WindowHistogram& wh) {
      append_i64(out, wh.p50);
    });
    array_u64("p95", s.windows, [&](const WindowHistogram& wh) {
      append_i64(out, wh.p95);
    });
    array_u64("p99", s.windows, [&](const WindowHistogram& wh) {
      append_i64(out, wh.p99);
    });
    out += '}';
  }
  out += "}}";
}

}  // namespace domino::obs
