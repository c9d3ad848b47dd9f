// Mencius client: sends every request to a pre-configured coordinator
// replica (the closest one, per the paper's Section 7.1: "a client always
// sends its requests to the closest replica that is pre-configured based on
// our network delay measurements").
#pragma once

#include "mencius/messages.h"
#include "rpc/client_base.h"

namespace domino::mencius {

class Client : public rpc::ClientBase {
 public:
  Client(NodeId id, std::size_t dc, rpc::Context& context, NodeId coordinator,
         sim::LocalClock clock = sim::LocalClock{})
      : rpc::ClientBase(id, dc, context, clock), coordinator_(coordinator) {}

  void set_coordinator(NodeId coordinator) { coordinator_ = coordinator; }
  [[nodiscard]] NodeId coordinator() const { return coordinator_; }

 protected:
  void propose(const sm::Command& command) override {
    send(coordinator_, ClientRequest{command});
  }

  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) != wire::MessageType::kMenciusClientReply) return;
    const auto reply = wire::decode_message<ClientReply>(packet.payload);
    handle_committed(reply.request);
  }

 private:
  NodeId coordinator_;
};

}  // namespace domino::mencius
