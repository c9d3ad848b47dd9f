// EPaxos client: sends every request to a pre-configured (closest) replica,
// which acts as the command leader, and waits for that replica's reply.
#pragma once

#include "epaxos/messages.h"
#include "rpc/client_base.h"

namespace domino::epaxos {

class Client : public rpc::ClientBase {
 public:
  Client(NodeId id, std::size_t dc, rpc::Context& context, NodeId command_leader,
         sim::LocalClock clock = sim::LocalClock{})
      : rpc::ClientBase(id, dc, context, clock), leader_(command_leader) {}

  [[nodiscard]] NodeId command_leader() const { return leader_; }

 protected:
  void propose(const sm::Command& command) override { send(leader_, ClientRequest{command}); }

  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) != wire::MessageType::kEpaxosClientReply) return;
    const auto reply = wire::decode_message<ClientReply>(packet.payload);
    handle_committed(reply.request);
  }

 private:
  NodeId leader_;
};

}  // namespace domino::epaxos
