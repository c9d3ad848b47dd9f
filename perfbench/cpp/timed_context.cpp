#include "timed_context.h"

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using domino::wire::MessageType;

namespace {

std::size_t tag_of(std::span<const std::uint8_t> payload) {
  const auto tag = static_cast<std::size_t>(domino::wire::peek_type(payload));
  return tag < domino::wire::kMaxMessageTypeTag ? tag : 0;
}

}  // namespace

const char* TimedContext::dispatch_span_name(MessageType type) {
  // Built once; the strings live for the whole process, as span names must.
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v(domino::wire::kMaxMessageTypeTag);
    for (std::size_t t = 0; t < v.size(); ++t) {
      v[t] = std::string("rpc.dispatch.") +
             domino::wire::message_type_name(static_cast<MessageType>(t));
    }
    return v;
  }();
  const auto t = static_cast<std::size_t>(type);
  return names[t < names.size() ? t : 0].c_str();
}

void TimedContext::send(domino::NodeId src, domino::NodeId dst,
                        domino::wire::Payload payload) {
  ++sent_[tag_of(payload)];
  ++sent_total_;
  sent_bytes_ += payload.size();
  ScopedSpan span(spans_, "rpc.send");
  inner_.send(src, dst, std::move(payload));
}

void TimedContext::schedule(domino::Duration delay, std::function<void()> fn) {
  inner_.schedule(delay, [this, fn = std::move(fn)] {
    ++timers_fired_;
    ScopedSpan span(spans_, "rpc.timer");
    fn();
  });
}

void TimedContext::register_node(domino::NodeId id, std::size_t dc, Receiver receiver) {
  inner_.register_node(id, dc, [this, receiver = std::move(receiver)](
                                   const domino::net::Packet& packet) {
    const std::size_t tag = tag_of(packet.payload);
    ++received_[tag];
    ScopedSpan span(spans_, dispatch_span_name(static_cast<MessageType>(tag)));
    receiver(packet);
  });
}

}  // namespace perfbench
