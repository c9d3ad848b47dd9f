#include "rpc/client_base.h"

#include <gtest/gtest.h>

#include "measure/messages.h"
#include "net/network.h"

namespace domino::rpc {
namespace {

net::Topology one_dc() { return net::Topology{{"A"}, {{0.0}}}; }

/// Client whose propose() self-commits after a fixed delay.
class LoopbackClient : public ClientBase {
 public:
  LoopbackClient(NodeId id, net::Network& network, Duration commit_delay)
      : ClientBase(id, 0, network, sim::LocalClock{}), delay_(commit_delay) {}

  std::vector<sm::Command> proposed;

 protected:
  void propose(const sm::Command& command) override {
    proposed.push_back(command);
    after(delay_, [this, id = command.id] { handle_committed(id); });
  }
  void on_packet(const net::Packet&) override {}

 private:
  Duration delay_;
};

TEST(ClientBase, SubmitTriggersProposeAndHooks) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  LoopbackClient c(NodeId{1000}, network, milliseconds(30));
  c.attach();

  std::vector<Duration> latencies;
  c.set_commit_hook([&](const RequestId&, TimePoint sent, TimePoint committed) {
    latencies.push_back(committed - sent);
  });
  int sends = 0;
  c.set_send_hook([&](const RequestId&, TimePoint) { ++sends; });

  sm::Command cmd;
  cmd.id = RequestId{NodeId{1000}, 0};
  cmd.key = "k";
  cmd.value = "v";
  c.submit(cmd);
  simulator.run();

  EXPECT_EQ(sends, 1);
  EXPECT_EQ(c.submitted_count(), 1u);
  EXPECT_EQ(c.committed_count(), 1u);
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_EQ(latencies[0], milliseconds(30));
}

TEST(ClientBase, DuplicateCommitIgnored) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);

  class DoubleCommit : public LoopbackClient {
   public:
    using LoopbackClient::LoopbackClient;
    void force_commit(const RequestId& id) { handle_committed(id); }
  };
  DoubleCommit c(NodeId{1000}, network, milliseconds(1));
  c.attach();
  int commits = 0;
  c.set_commit_hook([&](const RequestId&, TimePoint, TimePoint) { ++commits; });

  sm::Command cmd;
  cmd.id = RequestId{NodeId{1000}, 0};
  c.submit(cmd);
  simulator.run();
  c.force_commit(cmd.id);  // duplicate
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(c.committed_count(), 1u);
}

TEST(ClientBase, OutOfOrderCommitsCountOnceEach) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  // Commits arrive only when forced, in any order.
  class ManualCommit : public ClientBase {
   public:
    ManualCommit(NodeId id, net::Network& network)
        : ClientBase(id, 0, network, sim::LocalClock{}) {}
    void force_commit(const RequestId& id) { handle_committed(id); }

   protected:
    void propose(const sm::Command&) override {}
    void on_packet(const net::Packet&) override {}
  };
  ManualCommit c(NodeId{1000}, network);
  c.attach();
  std::vector<std::uint64_t> committed;
  c.set_commit_hook(
      [&](const RequestId& id, TimePoint, TimePoint) { committed.push_back(id.seq); });

  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    sm::Command cmd;
    cmd.id = RequestId{NodeId{1000}, seq};
    c.submit(cmd);
  }
  // Gaps first, then the seqs that close them, with duplicates on both sides
  // of every merge.
  for (const std::uint64_t seq : {4u, 1u, 4u, 5u, 0u, 1u, 3u, 2u, 5u, 0u, 2u}) {
    c.force_commit(RequestId{NodeId{1000}, seq});
  }
  EXPECT_EQ(committed, (std::vector<std::uint64_t>{4, 1, 5, 0, 3, 2}));
  EXPECT_EQ(c.committed_count(), 6u);
}

TEST(ClientBase, ForeignCommitIgnored) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  class Exposed : public LoopbackClient {
   public:
    using LoopbackClient::LoopbackClient;
    void force_commit(const RequestId& id) { handle_committed(id); }
  };
  Exposed c(NodeId{1000}, network, milliseconds(1));
  c.attach();
  c.force_commit(RequestId{NodeId{1234}, 0});  // not our client id
  EXPECT_EQ(c.committed_count(), 0u);
}

TEST(ClientBase, LoadGeneratorPacesRequests) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  LoopbackClient c(NodeId{1000}, network, milliseconds(1));
  c.attach();
  sm::WorkloadConfig wc;
  wc.num_keys = 100;
  sm::WorkloadGenerator gen(wc, 1);
  c.start_load(gen, 100.0);  // 100 rps -> every 10 ms
  simulator.run_until(TimePoint::epoch() + seconds(1));
  c.stop_load();
  EXPECT_EQ(c.submitted_count(), 100u);
  simulator.run_until(TimePoint::epoch() + seconds(2));
  EXPECT_EQ(c.committed_count(), 100u);
  EXPECT_EQ(c.inflight_count(), 0u);
}

TEST(ClientBase, ZeroRateIsNoop) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  LoopbackClient c(NodeId{1000}, network, milliseconds(1));
  c.attach();
  sm::WorkloadConfig wc;
  sm::WorkloadGenerator gen(wc, 1);
  c.start_load(gen, 0.0);
  simulator.run_until(TimePoint::epoch() + seconds(1));
  EXPECT_EQ(c.submitted_count(), 0u);
}

/// Client that silently drops the first `drop_first` proposals, then
/// behaves like LoopbackClient (self-commit after a fixed delay).
class FlakyClient : public ClientBase {
 public:
  FlakyClient(NodeId id, net::Network& network, Duration commit_delay,
              std::size_t drop_first)
      : ClientBase(id, 0, network, sim::LocalClock{}),
        delay_(commit_delay),
        drop_remaining_(drop_first) {}

  std::size_t proposals = 0;

 protected:
  void propose(const sm::Command& command) override {
    ++proposals;
    if (drop_remaining_ > 0) {
      --drop_remaining_;
      return;  // lost: nothing will commit this attempt
    }
    after(delay_, [this, id = command.id] { handle_committed(id); });
  }
  void on_packet(const net::Packet&) override {}

 private:
  Duration delay_;
  std::size_t drop_remaining_;
};

/// Client whose propose() records virtual send times and commits nothing.
class SinkClient : public ClientBase {
 public:
  SinkClient(NodeId id, net::Network& network, sim::Simulator& simulator)
      : ClientBase(id, 0, network, sim::LocalClock{}), sim_(simulator) {}

  std::vector<TimePoint> propose_times;

 protected:
  void propose(const sm::Command&) override { propose_times.push_back(sim_.now()); }
  void on_packet(const net::Packet&) override {}

 private:
  sim::Simulator& sim_;
};

sm::Command command_for(NodeId client, std::uint64_t seq) {
  sm::Command cmd;
  cmd.id = RequestId{client, seq};
  cmd.key = "k";
  cmd.value = "v";
  return cmd;
}

TEST(ClientBase, TimeoutRetriesUntilCommit) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  FlakyClient c(NodeId{1000}, network, milliseconds(5), /*drop_first=*/2);
  c.attach();
  c.set_request_timeout(milliseconds(20), /*max_retries=*/3);

  c.submit(command_for(NodeId{1000}, 0));
  simulator.run();

  // Initial proposal + 2 retries before one gets through and commits.
  EXPECT_EQ(c.proposals, 3u);
  EXPECT_EQ(c.retry_count(), 2u);
  EXPECT_EQ(c.committed_count(), 1u);
  EXPECT_EQ(c.abandoned_count(), 0u);
  EXPECT_EQ(c.inflight_count(), 0u);
}

TEST(ClientBase, AbandonsAfterMaxRetries) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  SinkClient c(NodeId{1000}, network, simulator);
  c.attach();
  c.set_request_timeout(milliseconds(20), /*max_retries=*/2);

  c.submit(command_for(NodeId{1000}, 0));
  simulator.run();

  // Initial proposal + 2 retries, all lost, each a full timeout after the
  // last; the third timeout abandons the request.
  const TimePoint t0 = TimePoint::epoch();
  EXPECT_EQ(c.propose_times,
            (std::vector<TimePoint>{t0, t0 + milliseconds(20), t0 + milliseconds(40)}));
  EXPECT_EQ(simulator.now(), t0 + milliseconds(60));
  EXPECT_EQ(c.retry_count(), 2u);
  EXPECT_EQ(c.committed_count(), 0u);
  EXPECT_EQ(c.abandoned_count(), 1u);
  EXPECT_EQ(c.inflight_count(), 0u);
  // submitted == committed + abandoned + inflight.
  EXPECT_EQ(c.submitted_count(),
            c.committed_count() + c.abandoned_count() + c.inflight_count());
}

TEST(ClientBase, LateCommitAfterAbandonIsUncounted) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  // Commits do arrive, but far later than the timeout budget allows.
  LoopbackClient c(NodeId{1000}, network, milliseconds(200));
  c.attach();
  c.set_request_timeout(milliseconds(10), /*max_retries=*/0);

  c.submit(command_for(NodeId{1000}, 0));
  simulator.run_until(TimePoint::epoch() + milliseconds(50));
  EXPECT_EQ(c.abandoned_count(), 1u);  // timed out at 10 ms, no retries

  simulator.run();  // the 200 ms self-commit lands
  EXPECT_EQ(c.committed_count(), 1u);
  EXPECT_EQ(c.abandoned_count(), 0u);  // late commit corrects the books
  EXPECT_EQ(c.submitted_count(),
            c.committed_count() + c.abandoned_count() + c.inflight_count());
}

TEST(ClientBase, NoRetryWhenCommitBeatsTimeout) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  LoopbackClient c(NodeId{1000}, network, milliseconds(5));
  c.attach();
  c.set_request_timeout(milliseconds(50), /*max_retries=*/3);

  c.submit(command_for(NodeId{1000}, 0));
  simulator.run();

  EXPECT_EQ(c.proposed.size(), 1u);
  EXPECT_EQ(c.retry_count(), 0u);
  EXPECT_EQ(c.committed_count(), 1u);
}

TEST(ClientBase, CustomTimeoutHookOverridesDefault) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);

  class FailoverClient : public ClientBase {
   public:
    FailoverClient(NodeId id, net::Network& network)
        : ClientBase(id, 0, network, sim::LocalClock{}) {}
    std::vector<std::size_t> failover_attempts;

   protected:
    void propose(const sm::Command&) override {}  // primary path: black hole
    void on_request_timeout(const sm::Command& command, std::size_t attempt) override {
      failover_attempts.push_back(attempt);
      // "Backup path" commits immediately.
      handle_committed(command.id);
    }
    void on_packet(const net::Packet&) override {}
  };

  FailoverClient c(NodeId{1000}, network);
  c.attach();
  c.set_request_timeout(milliseconds(10), /*max_retries=*/3);
  c.submit(command_for(NodeId{1000}, 0));
  simulator.run();

  ASSERT_EQ(c.failover_attempts.size(), 1u);
  EXPECT_EQ(c.failover_attempts[0], 1u);
  EXPECT_EQ(c.committed_count(), 1u);
  EXPECT_EQ(c.retry_count(), 1u);
  EXPECT_EQ(c.abandoned_count(), 0u);
}

// Root spans: ClientBase opens one per submitted command and finds it again
// in the span store for retries, abandons and commits.

/// Records the trace context each delivered packet carries on the wire.
class ContextRecorder : public Node {
 public:
  using Node::Node;
  std::vector<wire::TraceContextWire> seen;

 protected:
  void on_packet(const net::Packet& packet) override {
    seen.push_back(wire::peek_trace_context(packet.payload));
  }
};

/// Client whose every proposal, the first and each retry, sends a Probe to
/// `peer`; a request commits only when commit() is called.
class ProbingClient : public ClientBase {
 public:
  ProbingClient(NodeId id, net::Network& network, NodeId peer)
      : ClientBase(id, 0, network, sim::LocalClock{}), peer_(peer) {}
  void commit(const RequestId& id) { handle_committed(id); }

 protected:
  void propose(const sm::Command&) override { send(peer_, measure::Probe{}); }
  void on_packet(const net::Packet&) override {}

 private:
  NodeId peer_;
};

/// A span store, a ContextRecorder peer and a ProbingClient, wired up.
struct SpanRig {
  sim::Simulator simulator;
  net::Network network{simulator, one_dc(), 1};
  obs::SpanStore store;
  ContextRecorder peer{NodeId{0}, 0, bound(network, store)};
  ProbingClient client{NodeId{1000}, network, peer.id()};

  explicit SpanRig(std::size_t max_retries) {
    peer.attach();
    client.attach();
    client.set_request_timeout(milliseconds(20), max_retries);
  }
  // Binds the store before the nodes are built: a node captures the sink
  // at construction.
  static net::Network& bound(net::Network& network, obs::SpanStore& store) {
    network.bind_obs(obs::Sink{.spans = &store});
    return network;
  }
  void run_to(std::int64_t ms) { simulator.run_until(TimePoint::epoch() + milliseconds(ms)); }
  const obs::Span& root_of(const RequestId& id) {
    return *store.span(store.root_of(obs::trace_id_of(id)));
  }
};

TEST(ClientBaseSpans, RetryCarriesOriginalRootContext) {
  SpanRig rig(/*max_retries=*/2);
  const RequestId id{NodeId{1000}, 0};
  rig.client.submit(command_for(NodeId{1000}, 0));
  rig.run_to(50);

  ASSERT_EQ(rig.client.retry_count(), 2u);
  const obs::SpanId root = rig.store.root_of(obs::trace_id_of(id));
  ASSERT_NE(root, 0u);
  ASSERT_EQ(rig.peer.seen.size(), 3u);  // the proposal and both retries
  for (const wire::TraceContextWire& ctx : rig.peer.seen) {
    EXPECT_EQ(ctx.trace_id, obs::trace_id_of(id));
    EXPECT_EQ(ctx.span_id, root);
  }
}

TEST(ClientBaseSpans, AbandonClosesRoot) {
  SpanRig rig(/*max_retries=*/1);
  const RequestId id{NodeId{1000}, 0};
  rig.client.submit(command_for(NodeId{1000}, 0));
  rig.run_to(50);

  ASSERT_EQ(rig.client.abandoned_count(), 1u);  // timed out at 20 ms, abandoned at 40 ms
  EXPECT_EQ(rig.root_of(id).end, TimePoint::epoch() + milliseconds(40));
  EXPECT_TRUE(rig.store.commits().empty());
}

TEST(ClientBaseSpans, LateCommitAfterAbandonAddsNoCommitRecord) {
  SpanRig rig(/*max_retries=*/1);
  const RequestId lost{NodeId{1000}, 0};
  rig.client.submit(command_for(NodeId{1000}, 0));
  rig.run_to(50);
  ASSERT_EQ(rig.client.abandoned_count(), 1u);

  rig.client.commit(lost);  // the books count it; the trace stays as the abandon left it
  EXPECT_EQ(rig.client.committed_count(), 1u);
  EXPECT_EQ(rig.client.abandoned_count(), 0u);
  EXPECT_TRUE(rig.store.commits().empty());
  EXPECT_EQ(rig.root_of(lost).end, TimePoint::epoch() + milliseconds(40));

  // A commit in time closes its root and adds one CommitRecord.
  const RequestId kept{NodeId{1000}, 1};
  rig.client.submit(command_for(NodeId{1000}, 1));
  rig.run_to(55);
  rig.client.commit(kept);
  ASSERT_EQ(rig.store.commits().size(), 1u);
  EXPECT_EQ(rig.store.commits()[0].request, kept);
  EXPECT_EQ(rig.store.commits()[0].committed_at, TimePoint::epoch() + milliseconds(55));
  EXPECT_EQ(rig.root_of(kept).end, TimePoint::epoch() + milliseconds(55));
}

}  // namespace
}  // namespace domino::rpc
