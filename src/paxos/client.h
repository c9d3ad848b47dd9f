// Multi-Paxos client: sends every request to the fixed leader and waits for
// the leader's reply.
#pragma once

#include "paxos/messages.h"
#include "rpc/client_base.h"

namespace domino::paxos {

class Client : public rpc::ClientBase {
 public:
  Client(NodeId id, std::size_t dc, rpc::Context& context, NodeId leader,
         sim::LocalClock clock = sim::LocalClock{})
      : rpc::ClientBase(id, dc, context, clock), leader_(leader) {}

 protected:
  void propose(const sm::Command& command) override { send(leader_, ClientRequest{command}); }

  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) != wire::MessageType::kPaxosClientReply) return;
    const auto reply = wire::decode_message<ClientReply>(packet.payload);
    handle_committed(reply.request);
  }

 private:
  NodeId leader_;
};

}  // namespace domino::paxos
