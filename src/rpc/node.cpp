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
    if (obs_.metrics == nullptr && obs_.spans == nullptr) {
      on_packet(pkt);  // dispatch() drops a malformed payload
      return;
    }
    wire::MessageType type{};
    wire::TraceContextWire ctx;
    try {
      type = wire::peek_type(pkt.payload);
      if (obs_.spans != nullptr) ctx = wire::peek_trace_context(pkt.payload);
    } catch (const wire::WireError&) {
      drop_malformed();
      return;
    }
    if (obs_.metrics != nullptr) instrument_recv(type);
    if (ctx.valid()) {
      dispatch_traced(pkt, type, ctx);
      return;
    }
    if (obs_.spans != nullptr) clear_active_span();
    on_packet(pkt);
  });
}

void Node::drop_malformed() {
  // Bound lazily, so a run that drops nothing exports no such counter.
  if (obs_malformed_.value() == 0) obs_malformed_ = obs_.counter("rpc.malformed_dropped");
  obs_malformed_.inc();
}

void Node::dispatch_traced(const net::Packet& pkt, wire::MessageType type,
                           const wire::TraceContextWire& ctx) {
  obs::SpanStore& spans = *obs_.spans;
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

void Node::after_in_span(Duration delay, std::function<void()> fn) {
  if (obs_.spans == nullptr || !active_span_.valid()) {
    after(delay, std::move(fn));
    return;
  }
  after(delay, [this, span = active_span_, fn = std::move(fn)] {
    const obs::TraceContext prev = active_span_;
    active_span_ = span;
    fn();
    active_span_ = prev;
  });
}

void Node::open_wait(const char* name, WaitKey key) {
  if (obs_.spans == nullptr || !active_span_.valid()) return;
  const auto [it, opened] = waits_.try_emplace({name, key});
  if (opened) {
    it->second = obs_.spans->open(active_span_.trace_id, active_span_.span_id, id_, name,
                                  context_.now());
  }
}

void Node::close_wait(const char* name, WaitKey key) {
  if (obs_.spans == nullptr) return;
  const auto it = waits_.find({name, key});
  if (it == waits_.end()) return;
  obs_.spans->close(it->second, context_.now());
  waits_.erase(it);
}

void Node::close_waits() {
  for (const auto& [wait, span] : waits_) obs_.spans->close(span, context_.now());
  waits_.clear();
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

void Node::instrument_recv(wire::MessageType type) {
  obs_received_.inc();
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
