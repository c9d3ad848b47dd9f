// Transport neutrality: every protocol node runs over any rpc::Context.
//
// The nodes below never see the simulator's net::Network. They are built over
// a forwarding Context decorator that counts what passes through it, and each
// of the five protocols must still commit and execute a fixed batch. The
// decorator's send count equals the network's packet count, so every message
// went through the Context interface and nothing reached the network around
// it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/replica.h"
#include "epaxos/client.h"
#include "epaxos/replica.h"
#include "fastpaxos/client.h"
#include "fastpaxos/replica.h"
#include "harness/runner.h"
#include "mencius/client.h"
#include "mencius/replica.h"
#include "net/network.h"
#include "paxos/client.h"
#include "paxos/replica.h"
#include "rpc/context.h"
#include "support/fixtures.h"

namespace domino::rpc {
namespace {

using harness::Protocol;

/// Forwards everything to `inner` and counts sends and registrations.
class CountingContext final : public Context {
 public:
  explicit CountingContext(Context& inner) : inner_(inner) {}

  void send(NodeId src, NodeId dst, wire::Payload payload) override {
    ++sends_;
    inner_.send(src, dst, std::move(payload));
  }
  void schedule(Duration delay, std::function<void()> fn) override {
    inner_.schedule(delay, std::move(fn));
  }
  [[nodiscard]] TimePoint now() const override { return inner_.now(); }
  void register_node(NodeId id, std::size_t dc, Receiver receiver) override {
    ++registered_;
    inner_.register_node(id, dc, std::move(receiver));
  }
  [[nodiscard]] obs::Sink obs() const override { return inner_.obs(); }

  [[nodiscard]] std::uint64_t sends() const { return sends_; }
  [[nodiscard]] std::size_t registered() const { return registered_; }

 private:
  Context& inner_;
  std::uint64_t sends_ = 0;
  std::size_t registered_ = 0;
};

constexpr std::size_t kReplicas = 3;
constexpr std::uint64_t kBatch = 10;  // commands per client

/// Replicas in datacenters A, B, C of the four-DC test topology; one client
/// in D (remote) and one in B (co-located with a replica).
class TransportNeutral : public ::testing::TestWithParam<Protocol> {
 protected:
  sim::Simulator simulator;
  net::Network network{simulator, test::four_dc(), 1};
  CountingContext context{network};
  std::vector<NodeId> rids = test::replica_ids(kReplicas);
  const std::vector<std::size_t> client_dcs = {3, 1};

  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<const sm::KvStore*> stores;
  std::vector<ClientBase*> clients;

  void add_replica(std::unique_ptr<recovery::Replica> replica) {
    replica->attach();
    replica->start();
    stores.push_back(&replica->store());
    nodes.push_back(std::move(replica));
  }

  void add_client(std::unique_ptr<ClientBase> client) {
    client->attach();
    client->start();
    clients.push_back(client.get());
    nodes.push_back(std::move(client));
  }

  void build(Protocol protocol) {
    Context& ctx = context;
    const NodeId leader = rids[0];
    for (std::size_t i = 0; i < kReplicas; ++i) {
      switch (protocol) {
        case Protocol::kMultiPaxos:
          add_replica(std::make_unique<paxos::Replica>(rids[i], i, ctx, rids, leader));
          break;
        case Protocol::kMencius:
          add_replica(std::make_unique<mencius::Replica>(rids[i], i, ctx, rids));
          break;
        case Protocol::kEPaxos:
          add_replica(std::make_unique<epaxos::Replica>(rids[i], i, ctx, rids));
          break;
        case Protocol::kFastPaxos:
          add_replica(std::make_unique<fastpaxos::Replica>(rids[i], i, ctx, rids, leader));
          break;
        case Protocol::kDomino:
          add_replica(std::make_unique<core::Replica>(rids[i], i, ctx, rids, leader));
          break;
      }
    }
    for (std::size_t i = 0; i < client_dcs.size(); ++i) {
      const NodeId id{static_cast<std::uint32_t>(1000 + i)};
      const std::size_t dc = client_dcs[i];
      // Mencius and EPaxos clients use the replica in (or nearest to) their
      // datacenter: C for D, B for B.
      const NodeId nearest = rids[dc == 3 ? 2 : dc];
      switch (protocol) {
        case Protocol::kMultiPaxos:
          add_client(std::make_unique<paxos::Client>(id, dc, ctx, leader));
          break;
        case Protocol::kMencius:
          add_client(std::make_unique<mencius::Client>(id, dc, ctx, nearest));
          break;
        case Protocol::kEPaxos:
          add_client(std::make_unique<epaxos::Client>(id, dc, ctx, nearest));
          break;
        case Protocol::kFastPaxos:
          add_client(std::make_unique<fastpaxos::Client>(id, dc, ctx, rids));
          break;
        case Protocol::kDomino:
          add_client(std::make_unique<core::Client>(id, dc, ctx, rids));
          break;
      }
    }
  }
};

TEST_P(TransportNeutral, CommitsAndExecutesThroughAnyContext) {
  build(GetParam());
  EXPECT_EQ(context.registered(), kReplicas + client_dcs.size());

  // After a second of probing (Domino needs estimates), each client submits
  // its batch, one command every 20 ms, each on its own key.
  for (std::uint64_t seq = 0; seq < kBatch; ++seq) {
    const TimePoint at = TimePoint::epoch() + seconds(1) + milliseconds(20) * seq;
    simulator.schedule_at(at, [this, seq] {
      for (ClientBase* c : clients) {
        c->submit(test::make_command(c->id(), seq,
                                     c->id().to_string() + "/" + std::to_string(seq)));
      }
    });
  }
  simulator.run_until(TimePoint::epoch() + seconds(5));

  for (const ClientBase* c : clients) {
    EXPECT_EQ(c->submitted_count(), kBatch);
    EXPECT_EQ(c->committed_count(), kBatch) << c->id().to_string();
  }
  const std::uint64_t total = kBatch * clients.size();
  for (const sm::KvStore* store : stores) {
    EXPECT_EQ(store->applied_count(), total);
    EXPECT_EQ(store->fingerprint(), stores.front()->fingerprint());
  }
  EXPECT_GT(context.sends(), 0u);
  EXPECT_EQ(context.sends(), network.packets_sent());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, TransportNeutral,
                         ::testing::Values(Protocol::kMultiPaxos, Protocol::kMencius,
                                           Protocol::kEPaxos, Protocol::kFastPaxos,
                                           Protocol::kDomino),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           std::string name = harness::protocol_name(info.param);
                           for (char& ch : name) {
                             if (ch == ' ' || ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace domino::rpc
