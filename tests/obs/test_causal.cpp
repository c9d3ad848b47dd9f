// Critical-path analyzer tests on hand-built span DAGs with known answers.
#include "obs/causal.h"

#include <gtest/gtest.h>

#include "wire/message.h"

namespace domino::obs {
namespace {

TimePoint at(std::int64_t ms) { return TimePoint::epoch() + milliseconds(ms); }

constexpr NodeId kClient{1000};
constexpr NodeId kLeader{0};
constexpr NodeId kFollower{1};

/// Build the classic Multi-Paxos chain:
///   client --ClientRequest[0,20]--> leader --Accept[20,40]--> follower
///   --AcceptReply[40,60]--> leader --ClientReply[60,80]--> client commit.
struct PaxosChain {
  SpanStore store;
  RequestId request{kClient, 7};
  TraceId trace = trace_id_of(request);
  SpanId root, h_req, h_accept, h_reply, h_commit;

  PaxosChain() {
    using MT = wire::MessageType;
    root = store.open_root(trace, kClient, "command", at(0));
    const auto hop = [this](SpanId from, NodeId src, NodeId dst, std::int64_t s,
                            std::int64_t r, MT type) {
      const auto tag = static_cast<std::uint16_t>(type);
      const std::int32_t e = store.add_edge(trace, from, src, dst, at(s), at(r), tag);
      const SpanId h = store.open(trace, from, dst, wire::message_type_name(type), at(r),
                                  tag, e);
      store.bind_edge_target(e, h);
      store.close(h, at(r));
      return h;
    };
    h_req = hop(root, kClient, kLeader, 0, 20, MT::kPaxosClientRequest);
    h_accept = hop(h_req, kLeader, kFollower, 20, 40, MT::kPaxosAccept);
    h_reply = hop(h_accept, kFollower, kLeader, 40, 60, MT::kPaxosAcceptReply);
    h_commit = hop(h_reply, kLeader, kClient, 60, 80, MT::kPaxosClientReply);
    store.close(root, at(80));
    store.note_commit(trace, request, at(80), h_commit);
  }
};

TEST(CriticalPath, PaxosChainKnownAnswer) {
  PaxosChain c;
  const auto paths = critical_paths(c.store);
  ASSERT_EQ(paths.size(), 1u);
  const CommandPath& p = paths[0];
  EXPECT_EQ(p.request, c.request);
  EXPECT_EQ(p.submitted_at, at(0));
  EXPECT_EQ(p.committed_at, at(80));
  EXPECT_EQ(p.total(), milliseconds(80));

  ASSERT_EQ(p.segments.size(), 4u);
  EXPECT_STREQ(p.segments[0].phase, "request_transit");
  EXPECT_STREQ(p.segments[1].phase, "accept_transit");
  EXPECT_STREQ(p.segments[2].phase, "quorum_wait");
  EXPECT_STREQ(p.segments[3].phase, "reply_transit");
  // The quorum-wait segment names the straggler replica as sender.
  EXPECT_EQ(p.segments[2].node, kFollower);
  EXPECT_EQ(p.segments[2].peer, kLeader);
  // Chronological, contiguous tiling of [submit, commit].
  Duration sum = Duration::zero();
  TimePoint cursor = p.submitted_at;
  for (const PathSegment& s : p.segments) {
    EXPECT_EQ(s.begin, cursor);
    EXPECT_LT(s.begin, s.end);
    cursor = s.end;
    sum += s.duration();
  }
  EXPECT_EQ(cursor, p.committed_at);
  EXPECT_EQ(sum, p.total());
}

TEST(CriticalPath, UntracedCommitIsOneOpaqueWait) {
  SpanStore store;
  const RequestId request{kClient, 3};
  const TraceId trace = trace_id_of(request);
  store.open_root(trace, kClient, "command", at(0));
  store.note_commit(trace, request, at(50), /*via_span=*/0);

  const auto paths = critical_paths(store);
  ASSERT_EQ(paths.size(), 1u);
  ASSERT_EQ(paths[0].segments.size(), 1u);
  EXPECT_STREQ(paths[0].segments[0].phase, "untraced_wait");
  EXPECT_EQ(paths[0].segments[0].duration(), milliseconds(50));
}

TEST(CriticalPath, RetryAttributesWaitBeforeTheCommittingAttempt) {
  // The committing attempt leaves the root at t=50 (a retry); [0,50] is the
  // time lost to the failed first attempt.
  SpanStore store;
  const RequestId request{kClient, 4};
  const TraceId trace = trace_id_of(request);
  const SpanId root = store.open_root(trace, kClient, "command", at(0));
  const auto tag = static_cast<std::uint16_t>(wire::MessageType::kDmPropose);
  const std::int32_t e = store.add_edge(trace, root, kClient, kLeader, at(50), at(70), tag);
  const SpanId h = store.open(trace, root, kLeader, "DmPropose", at(70), tag, e);
  store.bind_edge_target(e, h);
  store.close(h, at(70));
  store.note_commit(trace, request, at(70), h);

  const auto paths = critical_paths(store);
  ASSERT_EQ(paths.size(), 1u);
  ASSERT_EQ(paths[0].segments.size(), 2u);
  EXPECT_STREQ(paths[0].segments[0].phase, "client_retry_wait");
  EXPECT_EQ(paths[0].segments[0].duration(), milliseconds(50));
  EXPECT_STREQ(paths[0].segments[1].phase, "dm_forward_transit");
  EXPECT_EQ(paths[0].segments[1].duration(), milliseconds(20));
}

TEST(CriticalPath, SpanWithoutInEdgeFallsBackToSlowPathWait) {
  // A commit delivered via a span with no inbound edge (e.g. the edge
  // record was dropped, or the walk crossed into another command's trace):
  // the remaining interval becomes slow_path_wait, keeping the sum exact.
  SpanStore store;
  const RequestId request{kClient, 5};
  const TraceId trace = trace_id_of(request);
  store.open_root(trace, kClient, "command", at(0));
  const SpanId orphan = store.open(trace, /*parent=*/0, kLeader, "orphan", at(30));
  store.close(orphan, at(30));
  store.note_commit(trace, request, at(30), orphan);

  const auto paths = critical_paths(store);
  ASSERT_EQ(paths.size(), 1u);
  ASSERT_EQ(paths[0].segments.size(), 1u);
  EXPECT_STREQ(paths[0].segments[0].phase, "slow_path_wait");
  EXPECT_EQ(paths[0].segments[0].duration(), milliseconds(30));
}

TEST(CriticalPath, AccumulatePhasesFillsRegistry) {
  PaxosChain c;
  MetricsRegistry registry;
  accumulate_phases(critical_paths(c.store), registry);
  EXPECT_EQ(registry.counter("critpath.commands").value(), 1u);
  EXPECT_EQ(registry.histogram("critpath.total_ns").count(), 1u);
  EXPECT_EQ(registry.histogram("critpath.quorum_wait_ns").count(), 1u);
  EXPECT_EQ(registry.histogram("critpath.quorum_wait_ns").max(),
            milliseconds(20).nanos());
}

TEST(CriticalPath, CsvHasOneRowPerSegment) {
  PaxosChain c;
  const std::string csv = paths_to_csv(critical_paths(c.store), "Multi-Paxos");
  std::size_t lines = 0;
  for (const char ch : csv) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5u);  // header + 4 segments
  EXPECT_NE(csv.find("protocol,request,trace"), std::string::npos);
  EXPECT_NE(csv.find("Multi-Paxos,1000:7,"), std::string::npos);
  EXPECT_NE(csv.find(",quorum_wait,"), std::string::npos);
}

TEST(TransitPhase, NamesDominoPhases) {
  using MT = wire::MessageType;
  EXPECT_STREQ(transit_phase(static_cast<std::uint16_t>(MT::kDfpPropose)),
               "dfp_propose_transit");
  EXPECT_STREQ(transit_phase(static_cast<std::uint16_t>(MT::kDfpAcceptNotice)),
               "dfp_quorum_wait");
  EXPECT_STREQ(transit_phase(static_cast<std::uint16_t>(MT::kRangeRecover)),
               "recovery_transit");
  EXPECT_STREQ(transit_phase(9999), "transit");
}

}  // namespace
}  // namespace domino::obs
