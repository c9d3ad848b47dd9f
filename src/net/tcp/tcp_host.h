// TcpHost: a process endpoint in a real-socket Domino deployment.
//
// Each host has a NodeId, listens on a TCP port, and lazily connects to
// peers from an address book. The first frame on every outbound connection
// is a hello carrying the sender's NodeId, so the acceptor can map inbound
// frames to logical nodes. Message payloads are the same wire envelopes the
// simulator transports — the codec layer is shared byte-for-byte.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "net/tcp/frame_connection.h"
#include "wire/message.h"

namespace domino::net::tcp {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class TcpHost {
 public:
  using ReceiveCallback = std::function<void(NodeId from, wire::Payload payload)>;

  /// Binds and listens immediately. Port 0 picks an ephemeral port
  /// (retrievable via port()).
  TcpHost(EventLoop& loop, NodeId id, const Endpoint& listen_on);
  ~TcpHost();
  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  void set_receive_callback(ReceiveCallback cb) { on_receive_ = std::move(cb); }

  /// Register a peer's address for lazy connection.
  void add_peer(NodeId peer, const Endpoint& endpoint);

  /// Send a message envelope to a peer; connects on first use. Returns
  /// false if the peer is unknown or the connection could not be opened.
  bool send(NodeId to, const wire::Payload& payload);

  template <typename M>
  bool send_message(NodeId to, const M& msg) {
    return send(to, wire::encode_message(msg));
  }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Drop the connection to `peer` (tests: simulated link failure).
  void disconnect(NodeId peer);

  /// Invoke the receive callback directly (self-sends bypass the socket).
  void deliver_local(NodeId from, wire::Payload payload) {
    if (on_receive_) on_receive_(from, std::move(payload));
  }

 private:
  struct Conn {
    std::unique_ptr<FrameConnection> connection;
    NodeId peer;       // invalid until the hello frame arrives (inbound)
    bool hello_sent = false;
  };

  void on_accept(std::uint32_t events);
  Conn* connect_to(NodeId peer);
  void adopt(int fd, NodeId peer_if_known);
  void on_frame(Conn* conn, wire::Payload payload);
  void on_conn_closed(Conn* conn);

  EventLoop& loop_;
  NodeId id_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  ReceiveCallback on_receive_;
  std::unordered_map<NodeId, Endpoint> address_book_;
  std::vector<std::unique_ptr<Conn>> connections_;
  std::unordered_map<NodeId, Conn*> by_peer_;
};

}  // namespace domino::net::tcp
