#include "obs/trace.h"

#include <gtest/gtest.h>

#include "obs/export.h"

namespace domino::obs {
namespace {

TraceEvent event_at(std::int64_t ns, EventKind kind = EventKind::kNodeCrash) {
  TraceEvent e;
  e.at = TimePoint::epoch() + Duration{ns};
  e.kind = kind;
  e.node = NodeId{1};
  e.value = ns;
  return e;
}

TEST(TraceRecorder, RecordsInOrder) {
  TraceRecorder t;
  EXPECT_TRUE(t.empty());
  for (std::int64_t i = 0; i < 5; ++i) t.record(event_at(i));
  EXPECT_EQ(t.total_recorded(), 5u);
  const auto& events = t.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].value, static_cast<std::int64_t>(i));
  }
}

TEST(TraceRecorder, EveryKindHasAName) {
  for (auto kind : {EventKind::kNodeCrash, EventKind::kNodeRecover,
                    EventKind::kLinkPartition, EventKind::kLinkHeal,
                    EventKind::kLinkDegrade, EventKind::kLinkRestore,
                    EventKind::kRouteChange, EventKind::kClientRetry,
                    EventKind::kClientAbandon, EventKind::kRecoveryStart,
                    EventKind::kRecoveryDone}) {
    EXPECT_STRNE(event_kind_name(kind), "?");
  }
}

TEST(TraceRecorder, TextExportIsDeterministic) {
  TraceRecorder a;
  TraceRecorder b;
  for (std::int64_t i = 0; i < 20; ++i) {
    a.record(event_at(i * 3, EventKind::kClientRetry));
    b.record(event_at(i * 3, EventKind::kClientRetry));
  }
  EXPECT_EQ(trace_to_json(a), trace_to_json(b));
  EXPECT_NE(trace_to_json(a).find("\"kind\":\"client_retry\""), std::string::npos);
}

}  // namespace
}  // namespace domino::obs
