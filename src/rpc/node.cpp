#include "rpc/node.h"

#include <stdexcept>
#include <string>

namespace domino::rpc {

Node::Node(NodeId id, std::size_t dc, Context& context, sim::LocalClock clock)
    : context_(context), id_(id), dc_(dc), clock_(clock) {
  obs_ = context_.obs();
  obs_sent_ = obs_.counter("rpc.messages_sent");
  obs_received_ = obs_.counter("rpc.messages_received");
}

void Node::attach() {
  if (attached_) throw std::logic_error("Node::attach called twice");
  attached_ = true;
  context_.register_node(id_, dc_, [this](const net::Packet& pkt) {
    if (obs_.metrics != nullptr) instrument_recv(pkt);
    if (obs_.spans != nullptr) {
      const wire::TraceContextWire ctx = wire::peek_trace_context(pkt.payload);
      if (ctx.valid()) {
        dispatch_traced(pkt, ctx);
        return;
      }
      clear_active_span();
    }
    on_packet(pkt);
  });
}

void Node::dispatch_traced(const net::Packet& pkt, const wire::TraceContextWire& ctx) {
  obs::SpanStore& spans = *obs_.spans;
  const wire::MessageType type = wire::peek_type(pkt.payload);
  const TimePoint now = context_.now();
  const std::int32_t edge =
      spans.add_edge(ctx.trace_id, ctx.span_id, pkt.src, id_, pkt.sent_at, now,
                     static_cast<std::uint16_t>(type));
  const obs::SpanId handler = spans.open(ctx.trace_id, ctx.span_id, id_,
                                         wire::message_type_name(type), now,
                                         static_cast<std::uint16_t>(type), edge);
  spans.bind_edge_target(edge, handler);
  set_active_span(obs::TraceContext{ctx.trace_id, handler});
  on_packet(pkt);
  spans.close(handler, context_.now());
  clear_active_span();
}

void Node::instrument_send(wire::MessageType type, std::size_t bytes) {
  obs_sent_.inc();
  const auto tag = static_cast<std::size_t>(type);
  if (tag >= wire::kMaxMessageTypeTag) return;
  if (!obs_sent_init_[tag]) {
    obs_sent_init_[tag] = true;
    obs_sent_bytes_[tag] = obs_.histogram(
        std::string("rpc.sent_bytes.") + wire::message_type_name(type));
  }
  obs_sent_bytes_[tag].record(static_cast<std::int64_t>(bytes));
}

void Node::instrument_recv(const net::Packet& packet) {
  obs_received_.inc();
  const wire::MessageType type = wire::peek_type(packet.payload);
  const auto tag = static_cast<std::size_t>(type);
  if (tag >= wire::kMaxMessageTypeTag) return;
  if (!obs_recv_init_[tag]) {
    obs_recv_init_[tag] = true;
    obs_recv_type_[tag] =
        obs_.counter(std::string("rpc.received.") + wire::message_type_name(type));
  }
  obs_recv_type_[tag].inc();
}

}  // namespace domino::rpc
