// recovery::Persistor on its own: the persist-then-continue sync model and
// the restart lifecycle (begin_restart, replay, request_catchup,
// finish_rejoin), driven by bare rpc::Nodes on a one-DC network.
#include "recovery/durable.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/network.h"
#include "recovery/messages.h"
#include "rpc/node.h"
#include "sim/simulator.h"
#include "statemachine/kvstore.h"

namespace domino::recovery {
namespace {

net::Topology one_dc() { return net::Topology{{"A"}, {{0.0}}}; }

wire::Payload bytes(std::initializer_list<std::uint8_t> b) { return wire::Payload(b); }

/// A node that owns a Persistor and logs the catch-up requests it receives.
class Host : public rpc::Node {
 public:
  using Node::Node;
  Persistor persistor;
  std::vector<std::uint64_t> request_epochs;

 protected:
  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) == wire::MessageType::kCatchupRequest) {
      request_epochs.push_back(wire::decode_message<CatchupRequest>(packet.payload).epoch);
    }
  }
};

struct PersistorTest : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, one_dc(), 1};
  DurableStore durable{DurableConfig{milliseconds(2)}};
  Host a{NodeId{0}, 0, network};

  void SetUp() override {
    a.attach();
    a.persistor.bind(durable, a);
  }

  [[nodiscard]] DurableLog& log() { return durable.log_of(a.id()); }
};

TEST_F(PersistorTest, ContinuationRunsOneSyncLatencyLater) {
  TimePoint ran_at = TimePoint::max();
  a.persistor.persist(RecordTag::kAccepted, [] { return bytes({1, 2}); },
                      [&] { ran_at = a.true_now(); });
  // Appended at once; externalized only after the sync.
  EXPECT_EQ(log().records().size(), 1u);
  EXPECT_EQ(ran_at, TimePoint::max());
  simulator.run();
  EXPECT_EQ(ran_at, TimePoint::epoch() + milliseconds(2));
  EXPECT_EQ(durable.aggregate().persisted_records, 1u);
  EXPECT_EQ(durable.aggregate().persisted_bytes, 3u);  // body + tag byte
}

TEST_F(PersistorTest, RestartInsideSyncWindowCancelsContinuationButKeepsRecord) {
  bool ran = false;
  a.persistor.persist(RecordTag::kCommitted, [] { return bytes({7}); }, [&] { ran = true; });
  simulator.schedule_at(TimePoint::epoch() + milliseconds(1),
                        [&] { a.persistor.begin_restart(); });
  simulator.run();
  EXPECT_FALSE(ran);
  ASSERT_EQ(log().records().size(), 1u);
  EXPECT_EQ(log().records()[0].tag, RecordTag::kCommitted);
  EXPECT_EQ(durable.aggregate().restarts, 1u);
}

TEST_F(PersistorTest, WeakenedLogCountsButKeepsAndReplaysNothing) {
  durable.weaken(a.id());
  bool ran = false;
  a.persistor.persist(RecordTag::kAccepted, [] { return bytes({1, 2, 3}); },
                      [&] { ran = true; });
  simulator.run();
  EXPECT_TRUE(ran);  // the code path is identical; only the data is gone
  EXPECT_EQ(durable.aggregate().persisted_records, 1u);
  EXPECT_EQ(durable.aggregate().persisted_bytes, 4u);
  EXPECT_TRUE(log().records().empty());
  EXPECT_EQ(log().byte_size(), 0u);
  std::size_t replayed = 0;
  a.persistor.replay([&](const DurableRecord&) { ++replayed; });
  EXPECT_EQ(replayed, 0u);
  EXPECT_EQ(durable.aggregate().replayed_records, 0u);
}

TEST_F(PersistorTest, ReplayWalksRecordsInAppendOrder) {
  a.persistor.persist(RecordTag::kReservation, [] { return bytes({1}); });
  a.persistor.persist(RecordTag::kAccepted, [] { return bytes({2, 2}); });
  a.persistor.persist(RecordTag::kCommitted, [] { return bytes({3, 3, 3}); });
  std::vector<RecordTag> tags;
  std::vector<std::size_t> sizes;
  a.persistor.replay([&](const DurableRecord& r) {
    tags.push_back(r.tag);
    sizes.push_back(r.body.size());
  });
  EXPECT_EQ(tags, (std::vector<RecordTag>{RecordTag::kReservation, RecordTag::kAccepted,
                                          RecordTag::kCommitted}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(durable.aggregate().replayed_records, 3u);
  EXPECT_EQ(durable.aggregate().replayed_bytes, 9u);  // 6 body bytes + 3 tag bytes
}

TEST(Persistor, UnboundRunsContinuationInlineWithoutEncoding) {
  Persistor p;
  bool body_called = false;
  bool ran = false;
  p.persist(RecordTag::kAccepted,
            [&] {
              body_called = true;
              return bytes({1});
            },
            [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_FALSE(body_called);
  EXPECT_FALSE(p.catching_up());
  // The restart lifecycle needs a node and a store.
  EXPECT_THROW(p.begin_restart(), std::logic_error);
  EXPECT_EQ(p.epoch(), 0u);
}

TEST(Persistor, LoneReplicaRejoinsAtOnce) {
  obs::TraceRecorder trace;
  sim::Simulator simulator;
  net::Network network{simulator, one_dc(), 1};
  network.bind_obs(obs::Sink{nullptr, &trace, nullptr, nullptr});
  Host lone{NodeId{0}, 0, network};
  lone.attach();
  DurableStore store;
  lone.persistor.bind(store, lone);
  const std::vector<NodeId> replicas{lone.id()};
  const sm::KvStore kv;

  lone.persistor.begin_restart();
  EXPECT_TRUE(lone.persistor.catching_up());
  lone.persistor.request_catchup(replicas, kv);
  EXPECT_FALSE(lone.persistor.catching_up());
  EXPECT_FALSE(lone.persistor.finish_rejoin());  // already rejoined: no-op
  simulator.run();

  EXPECT_EQ(store.aggregate().restarts, 1u);
  EXPECT_EQ(store.aggregate().rejoin_ns_total, 0);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].kind, obs::EventKind::kRecoveryStart);
  EXPECT_EQ(trace.events()[0].value, 1);  // the new epoch
  EXPECT_EQ(trace.events()[1].kind, obs::EventKind::kRecoveryDone);
  EXPECT_EQ(trace.events()[1].value, 0);
}

TEST_F(PersistorTest, RetryArmedBeforeSecondRestartNeverFires) {
  Host b{NodeId{1}, 0, network};
  b.attach();
  const std::vector<NodeId> replicas{a.id(), b.id()};
  const sm::KvStore kv;
  const TimePoint t0 = TimePoint::epoch();

  a.persistor.begin_restart();
  a.persistor.request_catchup(replicas, kv);  // epoch 1: sends at 0, retry at 100 ms
  simulator.schedule_at(t0 + milliseconds(50), [&] {
    a.persistor.begin_restart();  // epoch 2: sends at 50, retry at 150 ms
    a.persistor.request_catchup(replicas, kv);
  });
  simulator.run_until(t0 + milliseconds(190));
  // The epoch-1 retry at 100 ms was dropped; only epoch 2 keeps retrying.
  EXPECT_EQ(b.request_epochs, (std::vector<std::uint64_t>{1, 2, 2}));
  EXPECT_TRUE(a.persistor.catching_up());

  // Rejoining stops the retries and records the time since the second
  // restart.
  EXPECT_TRUE(a.persistor.finish_rejoin());
  simulator.run_until(t0 + milliseconds(400));
  EXPECT_EQ(b.request_epochs.size(), 3u);
  EXPECT_EQ(durable.aggregate().restarts, 2u);
  EXPECT_EQ(durable.aggregate().rejoin_ns_total, milliseconds(140).nanos());
}

}  // namespace
}  // namespace domino::recovery
