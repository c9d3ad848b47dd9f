// Golden-file test locking the run report's JSON *schema* (report_json): the set, order and
// shape of keys, not the values. The run report is the contract between the
// harness and every downstream tool (scripts/, notebooks, CI artifacts);
// renaming or dropping a key must fail a test, while changing a value (new
// seed, different latency) must not.
//
// The golden lives at tests/harness/golden/run_report_schema.golden. To
// regenerate after an intentional schema change:
//   DOMINO_UPDATE_GOLDEN=1 ./tests/test_harness --gtest_filter='ReportSchema.*'
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/run_report.h"

namespace domino::harness {
namespace {

#ifndef DOMINO_GOLDEN_DIR
#error "DOMINO_GOLDEN_DIR must point at tests/harness/golden"
#endif

/// Minimal walker over the JSON our own emitter produces (objects, arrays,
/// strings, numbers). Emits one "path:type" line per member, in document
/// order. Containers with *data-dependent* member names (the metrics
/// registry, the event trace) are recorded as opaque leaves so the schema
/// stays value-independent.
class SchemaWalker {
 public:
  explicit SchemaWalker(const std::string& json) : s_(json) {}

  std::string schema() {
    out_.clear();
    i_ = 0;
    value("$");
    return out_;
  }

 private:
  static bool dynamic_key(const std::string& key) {
    return key == "metrics" || key == "trace";
  }

  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])) != 0) ++i_;
  }

  char peek() {
    ws();
    return i_ < s_.size() ? s_[i_] : '\0';
  }

  std::string string_token() {
    std::string v;
    ++i_;  // opening quote
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      v += s_[i_++];
    }
    ++i_;  // closing quote
    return v;
  }

  void skip_value() {
    ws();
    int depth = 0;
    do {
      const char c = s_[i_];
      if (c == '"') {
        string_token();
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      ++i_;
    } while (i_ < s_.size() && depth > 0);
    // Scalar: consume until a structural delimiter.
    while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' && s_[i_] != ']') ++i_;
  }

  void value(const std::string& path) {
    const char c = peek();
    if (c == '{') {
      out_ += path + ":object\n";
      ++i_;
      if (peek() == '}') {
        ++i_;
        return;
      }
      while (true) {
        ws();
        const std::string key = string_token();
        ws();
        ++i_;  // ':'
        if (dynamic_key(key)) {
          out_ += path + "." + key + ":<dynamic>\n";
          skip_value();
        } else {
          value(path + "." + key);
        }
        if (peek() == ',') {
          ++i_;
          continue;
        }
        ++i_;  // '}'
        return;
      }
    }
    if (c == '[') {
      out_ += path + ":array\n";
      ++i_;
      if (peek() == ']') {
        ++i_;
        return;
      }
      value(path + "[]");  // shape of the first element stands for all
      while (peek() == ',') {
        ++i_;
        skip_value();
      }
      ++i_;  // ']'
      return;
    }
    if (c == '"') {
      string_token();
      out_ += path + ":string\n";
      return;
    }
    skip_value();
    out_ += path + ":number\n";
  }

  const std::string& s_;
  std::size_t i_ = 0;
  std::string out_;
};

Scenario schema_scenario() {
  Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.client_dcs = {0, 1};
  s.rps = 50;
  s.warmup = milliseconds(500);
  s.measure = seconds(2);
  s.cooldown = milliseconds(500);
  s.seed = 5;
  return s;
}

std::string golden_path() {
  return std::string(DOMINO_GOLDEN_DIR) + "/run_report_schema.golden";
}

TEST(ReportSchema, JsonKeysAndShapesMatchGolden) {
  // The richest report: observability + spans + prediction audit + windowed
  // telemetry with a fault (so the timeline and slo blocks appear with a
  // non-empty steady-state array), Domino.
  Scenario full = schema_scenario();
  full.command_spans = true;
  full.prediction_audit = true;
  full.timeseries_interval = milliseconds(250);
  full.faults.crash_for(TimePoint::epoch() + milliseconds(800), NodeId{1},
                        milliseconds(300));
  full.client_request_timeout = milliseconds(300);
  full.slo.steady_metric = "client.committed";
  full.slo.steady_windows = 2;
  const std::string rich = report_json(Protocol::kDomino, full, run_domino(full));

  // The leanest: observability off (no metrics/trace/audit blocks at all).
  Scenario min = schema_scenario();
  min.observability = false;
  const std::string lean = report_json(Protocol::kDomino, min, run_domino(min));

  std::string actual;
  actual += "# RunReport::to_json schema (keys and shapes, not values)\n";
  actual += "## full: observability + command_spans + prediction_audit + timeline/slo\n";
  actual += SchemaWalker(rich).schema();
  actual += "## minimal: observability off\n";
  actual += SchemaWalker(lean).schema();

  if (std::getenv("DOMINO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path()
                         << " (run with DOMINO_UPDATE_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual)
      << "Run report JSON schema changed. If intentional, regenerate with\n"
         "  DOMINO_UPDATE_GOLDEN=1 ./tests/test_harness "
         "--gtest_filter='ReportSchema.*'";
}

TEST(ReportSchema, SchemaIsValueIndependent) {
  // Different seed, same schema: the walker must not leak values.
  Scenario a = schema_scenario();
  a.prediction_audit = true;
  Scenario b = a;
  b.seed = 1234;
  b.rps = 80;
  const std::string ra = report_json(Protocol::kDomino, a, run_domino(a));
  const std::string rb = report_json(Protocol::kDomino, b, run_domino(b));
  EXPECT_NE(ra, rb);  // values differ...
  EXPECT_EQ(SchemaWalker(ra).schema(), SchemaWalker(rb).schema());  // ...schema does not
}

}  // namespace
}  // namespace domino::harness
