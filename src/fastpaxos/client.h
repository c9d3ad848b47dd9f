// Classic Fast Paxos client: broadcasts each request to every replica and
// learns the fast-path outcome itself by counting matching acceptances (a
// supermajority at the same log index); slow-path outcomes arrive as a
// coordinator reply.
#pragma once

#include <unordered_map>

#include "fastpaxos/messages.h"
#include "measure/quorum.h"
#include "rpc/client_base.h"

namespace domino::fastpaxos {

class Client : public rpc::ClientBase {
 public:
  Client(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
         sim::LocalClock clock = sim::LocalClock{})
      : rpc::ClientBase(id, dc, context, clock), replicas_(std::move(replicas)) {}

  [[nodiscard]] std::uint64_t fast_learns() const { return fast_learns_; }

 protected:
  void propose(const sm::Command& command) override {
    for (NodeId r : replicas_) send(r, ClientRequest{command});
  }

  void on_packet(const net::Packet& packet) override {
    dispatch<AcceptNotice, ClientReply>(
        packet, [this](const net::Packet& p, const auto& msg) { handle(p, msg); });
  }

 private:
  void handle(const net::Packet&, const AcceptNotice& notice) {
    if (notice.command.id.client != id()) return;
    const std::size_t count = ++tallies_[notice.command.id][notice.index];
    if (count >= measure::supermajority(replicas_.size())) {
      tallies_.erase(notice.command.id);
      ++fast_learns_;
      handle_committed(notice.command.id);
    }
  }

  void handle(const net::Packet&, const ClientReply& reply) {
    tallies_.erase(reply.request);
    handle_committed(reply.request);
  }

  std::vector<NodeId> replicas_;
  // request -> (index -> acceptance count)
  std::unordered_map<RequestId, std::unordered_map<std::uint64_t, std::size_t>> tallies_;
  std::uint64_t fast_learns_ = 0;
};

}  // namespace domino::fastpaxos
