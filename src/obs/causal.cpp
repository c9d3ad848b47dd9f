#include "obs/causal.h"

#include <algorithm>
#include <map>

#include "obs/json.h"
#include "wire/message.h"

namespace domino::obs {

namespace {

/// Backstop against pathological DAGs (cross-trace cycles cannot occur —
/// edges only point backwards in virtual time — but a dropped-edge chain
/// could be long). Beyond this many steps the rest is "unattributed".
constexpr std::size_t kMaxWalkSteps = 4096;

}  // namespace

const char* transit_phase(std::uint16_t msg_type) {
  using MT = wire::MessageType;
  switch (static_cast<MT>(msg_type)) {
    // Domino fast path: client broadcast, then the client (fast learner)
    // waits for a supermajority of accept notices. The edge completing the
    // quorum names the straggler replica.
    case MT::kDfpPropose: return "dfp_propose_transit";
    case MT::kDfpAcceptNotice: return "dfp_quorum_wait";
    case MT::kDfpClientReply: return "dfp_slow_reply_transit";
    // Domino DM (Mencius-style) path: forward to the lane owner, Accept
    // round, quorum gather.
    case MT::kDmPropose: return "dm_forward_transit";
    case MT::kDmAccept: return "dm_accept_transit";
    case MT::kDmAcceptReply: return "dm_quorum_wait";
    case MT::kDmClientReply: return "reply_transit";
    // Baselines.
    case MT::kPaxosClientRequest:
    case MT::kMenciusClientRequest:
    case MT::kEpaxosClientRequest:
    case MT::kFastPaxosClientRequest: return "request_transit";
    case MT::kPaxosAccept:
    case MT::kMenciusAccept:
    case MT::kEpaxosPreAccept:
    case MT::kEpaxosAccept: return "accept_transit";
    case MT::kPaxosAcceptReply:
    case MT::kMenciusAcceptReply:
    case MT::kEpaxosPreAcceptReply:
    case MT::kEpaxosAcceptReply: return "quorum_wait";
    case MT::kPaxosClientReply:
    case MT::kMenciusClientReply:
    case MT::kEpaxosClientReply:
    case MT::kFastPaxosClientReply: return "reply_transit";
    case MT::kDfpCommit:
    case MT::kDmCommit:
    case MT::kPaxosCommit:
    case MT::kMenciusCommit:
    case MT::kEpaxosCommit:
    case MT::kFastPaxosCommit: return "commit_transit";
    case MT::kFastPaxosAcceptNotice: return "fp_notice_transit";
    // Slow-path machinery: coordinator recovery, lane revocation, range
    // recovery. Time spent behind these edges is slow-path penalty.
    case MT::kFastPaxosRecoveryAccept:
    case MT::kFastPaxosRecoveryReply:
    case MT::kDfpRecoveryAccept:
    case MT::kDfpRecoveryReply:
    case MT::kRangeRecover:
    case MT::kRangeReply:
    case MT::kRangeResolve: return "recovery_transit";
    default: return "transit";
  }
}

std::vector<CommandPath> critical_paths(const SpanStore& store) {
  std::vector<CommandPath> paths;
  paths.reserve(store.commits().size());
  for (const CommitRecord& c : store.commits()) {
    const Span* root = store.span(store.root_of(c.trace));
    if (root == nullptr) continue;  // dropped root: no interval to anchor

    CommandPath path;
    path.trace = c.trace;
    path.request = c.request;
    path.submitted_at = root->begin;
    path.committed_at = c.committed_at;
    const TimePoint t0 = root->begin;

    // Segments are emitted newest-first, then reversed. emit() drops
    // zero-width segments (handlers run at a virtual instant), which never
    // breaks the tiling: a zero-width slice contributes zero latency.
    auto& segs = path.segments;
    const auto emit = [&segs](const char* phase, NodeId node, NodeId peer, TimePoint b,
                              TimePoint e) {
      if (e > b) segs.push_back(PathSegment{phase, node, peer, b, e});
    };

    TimePoint cur_time = c.committed_at;
    SpanId cur = c.via_span;
    if (cur == 0) {
      // The commit notification arrived on an untraced path (a timer or
      // heartbeat resolved the command — e.g. Mencius skips). The whole
      // interval is one opaque wait; the sum stays exact.
      emit("untraced_wait", root->node, root->node, t0, cur_time);
      paths.push_back(std::move(path));
      continue;
    }

    std::size_t steps = 0;
    while (cur_time > t0) {
      const Span* s = store.span(cur);
      if (s == nullptr || ++steps > kMaxWalkSteps) {
        emit("unattributed", root->node, root->node, t0, cur_time);
        break;
      }
      // Local segment: time spent inside span `s` up to the moment the walk
      // entered it. Handler spans are zero-width in virtual time; a nonzero
      // slice on the root span means the committing attempt was a retry
      // sent after the original submission.
      TimePoint seg_begin = std::clamp(s->begin, t0, cur_time);
      const bool own_root = s->root && s->trace == c.trace;
      emit(own_root ? "client_retry_wait" : "local_work", s->node, s->node, seg_begin,
           cur_time);
      cur_time = seg_begin;
      if (own_root || cur_time <= t0) break;  // reached the submit: fully tiled

      if (s->in_edge >= 0 &&
          static_cast<std::size_t>(s->in_edge) < store.edges().size()) {
        const MsgEdge& e = store.edges()[static_cast<std::size_t>(s->in_edge)];
        const TimePoint sent = std::clamp(e.sent_at, t0, cur_time);
        emit(transit_phase(e.msg_type), e.src, e.dst, sent, cur_time);
        cur_time = sent;
        cur = e.from_span;
      } else {
        // A span with no inbound message edge that is not our root: the
        // root of another command's trace (cross-command dependency, e.g.
        // an EPaxos dependency or a rerouted attempt), or a handler whose
        // edge record was dropped. (Never a wait span: no message is sent
        // from one, so no edge leads the walk into it.) Whatever the command
        // was blocked on is outside its own causal chain — slow-path penalty.
        emit("slow_path_wait", s->node, s->node, t0, cur_time);
        break;
      }
    }
    std::reverse(segs.begin(), segs.end());
    paths.push_back(std::move(path));
  }
  return paths;
}

void accumulate_phases(const std::vector<CommandPath>& paths, MetricsRegistry& registry) {
  Counter& commands = registry.counter("critpath.commands");
  for (const CommandPath& p : paths) {
    commands.inc();
    registry.histogram("critpath.total_ns").record(p.total());
    // One histogram sample per phase per command (a command may cross the
    // same phase several times, e.g. retries). std::map keeps phase
    // iteration order deterministic.
    std::map<std::string_view, std::int64_t> by_phase;
    for (const PathSegment& s : p.segments) by_phase[s.phase] += s.duration().nanos();
    for (const auto& [phase, ns] : by_phase) {
      registry.histogram("critpath." + std::string(phase) + "_ns").record(ns);
    }
  }
}

std::string paths_to_csv(const std::vector<CommandPath>& paths, std::string_view protocol) {
  std::string out =
      "protocol,request,trace,submit_ns,commit_ns,total_ns,"
      "phase_index,phase,node,peer,begin_ns,end_ns,dur_ns\n";
  const std::string proto(protocol);
  for (const CommandPath& p : paths) {
    std::size_t idx = 0;
    for (const PathSegment& s : p.segments) {
      appendf(out, "%s,%lu:%llu,%llu,%lld,%lld,%lld,%zu,%s,%lu,%lu,%lld,%lld,%lld\n",
              proto.c_str(), static_cast<unsigned long>(p.request.client.value()),
              static_cast<unsigned long long>(p.request.seq),
              static_cast<unsigned long long>(p.trace),
              static_cast<long long>(p.submitted_at.nanos()),
              static_cast<long long>(p.committed_at.nanos()),
              static_cast<long long>(p.total().nanos()), idx, s.phase,
              static_cast<unsigned long>(s.node.value()),
              static_cast<unsigned long>(s.peer.value()),
              static_cast<long long>(s.begin.nanos()), static_cast<long long>(s.end.nanos()),
              static_cast<long long>(s.duration().nanos()));
      ++idx;
    }
  }
  return out;
}

}  // namespace domino::obs
