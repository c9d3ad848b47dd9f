// Client that sends every request to one fixed replica and learns the
// commit from that replica's reply: the Multi-Paxos client (to the leader),
// and the Mencius and EPaxos clients (to the closest replica, pre-configured
// from network delay measurements, per the paper's Section 7.1). The three
// differ only in their message types.
#pragma once

#include "rpc/client_base.h"

namespace domino::rpc {

/// `Request` wraps one sm::Command; `Reply` names the committed request in
/// its `request` field.
template <typename Request, typename Reply>
class ForwardingClient : public ClientBase {
 public:
  ForwardingClient(NodeId id, std::size_t dc, Context& context, NodeId replica,
                   sim::LocalClock clock = sim::LocalClock{})
      : ClientBase(id, dc, context, clock), replica_(replica) {}

 protected:
  void propose(const sm::Command& command) override { send(replica_, Request{command}); }

  void on_packet(const net::Packet& packet) override {
    dispatch<Reply>(packet, [this](const net::Packet&, const Reply& reply) {
      handle_committed(reply.request);
    });
  }

 private:
  NodeId replica_;
};

}  // namespace domino::rpc
