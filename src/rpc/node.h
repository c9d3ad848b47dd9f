// Process base class: the glue between a protocol implementation and its
// transport.
//
// A Node owns an id, a datacenter placement, a (possibly skewed) local
// clock, and a receive dispatch point, all over an abstract rpc::Context —
// net::Network (the deterministic simulator) for evaluation or
// net::tcp::TcpContext (real TCP sockets) for deployment. Derived classes
// implement on_packet() with one dispatch<...>() call that lists the message
// structs they take; each struct's kType is the only place its wire tag is
// named. Sending always serializes through the wire codec.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <functional>
#include <map>
#include <string_view>
#include <utility>

#include "common/ids.h"
#include "obs/sink.h"
#include "rpc/context.h"
#include "sim/clock.h"
#include "wire/message.h"

namespace domino::rpc {

class Node {
 public:
  /// Run over `context`, which must outlive the node. `dc` is the node's
  /// datacenter placement (ignored by transports without one).
  Node(NodeId id, std::size_t dc, Context& context, sim::LocalClock clock = sim::LocalClock{});

  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Register this node's receiver with the transport. Must be called
  /// exactly once, after construction (not from the constructor, so that
  /// derived classes are fully built before packets can arrive).
  void attach();

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::size_t dc() const { return dc_; }

  /// True (monotonic) transport time.
  [[nodiscard]] TimePoint true_now() const { return context_.now(); }

  /// This node's local wall-clock reading (includes skew/drift).
  [[nodiscard]] TimePoint local_now() const { return clock_.local(true_now()); }

  [[nodiscard]] const sim::LocalClock& clock() const { return clock_; }

  /// Serialize and send a protocol message. When a span store is installed
  /// and a span is active (we are handling a traced packet, or a client is
  /// proposing a command), the active trace context is piggybacked on the
  /// envelope so the receiver can link its handling back to this span.
  template <typename M>
  void send(NodeId dst, const M& msg) {
    wire::Payload payload =
        (obs_.spans != nullptr && active_span_.valid())
            ? wire::encode_message_traced(
                  msg, wire::TraceContextWire{active_span_.trace_id, active_span_.span_id})
            : wire::encode_message(msg);
    if (obs_.metrics != nullptr) instrument_send(M::kType, payload.size());
    context_.send(id_, dst, std::move(payload));
  }

  /// The observability sink this node (and components embedded in it, e.g.
  /// a measure::Prober) reports into. Captured from the transport at
  /// construction; disabled unless the transport was bound first.
  [[nodiscard]] const obs::Sink& obs_sink() const { return obs_; }

  /// Schedule `fn` to run after `delay` (true-time delay).
  void after(Duration delay, std::function<void()> fn) {
    context_.schedule(delay, std::move(fn));
  }

  /// after(), with `fn` run inside the span active now, so what it sends
  /// stays on the trace that deferred it (e.g. a reply held back by a disk
  /// sync). Timers that start work of their own use after().
  void after_in_span(Duration delay, std::function<void()> fn);

  [[nodiscard]] Context& context() { return context_; }
  [[nodiscard]] const Context& context() const { return context_; }

  /// Payloads dropped because they were too short for an envelope or their
  /// body did not decode (also counted in rpc.malformed_dropped).
  [[nodiscard]] std::uint64_t malformed_dropped() const { return obs_malformed_.value(); }

 protected:
  /// Called (on the transport's thread / in virtual time) for every
  /// delivered packet.
  virtual void on_packet(const net::Packet& packet) = 0;

  /// Decode `packet` as whichever of `Ms` its envelope tag names and call
  /// `handler(packet, msg)`. Returns false, calling nothing, when no listed
  /// struct's kType matches. A malformed payload (too short for a tag, or a
  /// matched body that does not decode) is dropped and counted instead of
  /// throwing: the handler is not called and the result is true.
  template <typename... Ms, typename Handler>
  bool dispatch(const net::Packet& packet, Handler&& handler) {
    static_assert(distinct_tags<Ms...>(), "two listed message structs share a kType");
    wire::MessageType type{};
    try {
      type = wire::peek_type(packet.payload);
    } catch (const wire::WireError&) {
      drop_malformed();
      return true;
    }
    return ((type == Ms::kType && (decode_and_handle<Ms>(packet, handler), true)) || ...);
  }

  /// The span context outgoing messages are stamped with. Set automatically
  /// while handling a traced packet; ClientBase sets it around proposals.
  [[nodiscard]] const obs::TraceContext& active_span() const { return active_span_; }
  void set_active_span(const obs::TraceContext& ctx) { active_span_ = ctx; }
  void clear_active_span() { active_span_ = {}; }

  /// The span store this node records into (null = spans disabled).
  [[nodiscard]] obs::SpanStore* span_store() const { return obs_.spans; }

  /// The protocol's own key of a keyed wait: an index, a timestamp, or a
  /// (node, counter) pair such as a RequestId or EPaxos's InstanceId.
  /// Implicit, so call sites pass the key itself.
  struct WaitKey {
    NodeId node;
    std::uint64_t n = 0;

    template <std::integral I>
    constexpr WaitKey(I v) : n(static_cast<std::uint64_t>(v)) {}
    constexpr WaitKey(NodeId node, std::uint64_t n) : node(node), n(n) {}
    constexpr WaitKey(const RequestId& id) : node(id.client), n(id.seq) {}
    constexpr auto operator<=>(const WaitKey&) const = default;
  };

  /// Keyed wait spans: open_wait opens a child span of the active span named
  /// `name` (a static string) for a wait that outlasts one handler, e.g. a
  /// quorum gather; close_wait with the same name and key closes it. A wait
  /// is keyed by the name's contents plus `key`, so one key can be waited on
  /// under two names. Both are no-ops when spans are off; open_wait is one
  /// also when no span is active or the wait is already open (the first span
  /// stays), and close_wait when it is not open.
  void open_wait(const char* name, WaitKey key);
  void close_wait(const char* name, WaitKey key);
  /// Close every open wait (an amnesiac restart forgets what it waited for).
  void close_waits();

 private:
  template <typename... Ms>
  static constexpr bool distinct_tags() {
    std::array tags{Ms::kType...};
    std::ranges::sort(tags);
    return std::ranges::adjacent_find(tags) == tags.end();
  }

  /// Only the decode is guarded: a WireError from a decode nested inside the
  /// handler propagates.
  template <typename M, typename Handler>
  void decode_and_handle(const net::Packet& packet, Handler& handler) {
    bool decoded = false;
    try {
      const M msg = wire::decode_message<M>(packet.payload);
      decoded = true;
      handler(packet, msg);
    } catch (const wire::WireError&) {
      if (decoded) throw;
      drop_malformed();
    }
  }

  void drop_malformed();
  void instrument_send(wire::MessageType type, std::size_t bytes);
  void instrument_recv(wire::MessageType type);
  /// Span bookkeeping around on_packet for a traced packet: records the
  /// send/recv edge, opens the handler span, and activates its context.
  void dispatch_traced(const net::Packet& packet, wire::MessageType type,
                       const wire::TraceContextWire& ctx);

  Context& context_;
  NodeId id_;
  std::size_t dc_;
  sim::LocalClock clock_;
  bool attached_ = false;

  obs::TraceContext active_span_;
  std::map<std::pair<std::string_view, WaitKey>, obs::SpanId> waits_;  // open keyed waits

  // Per-message-type handles, created lazily off the hot path; index = wire
  // tag. init bits distinguish "not yet created" from "disabled".
  obs::Sink obs_;
  obs::CounterHandle obs_sent_;
  obs::CounterHandle obs_received_;
  obs::CounterHandle obs_malformed_;  // bound on the first drop
  std::array<obs::HistogramHandle, wire::kMaxMessageTypeTag> obs_sent_bytes_{};
  std::array<obs::CounterHandle, wire::kMaxMessageTypeTag> obs_recv_type_{};
  std::array<bool, wire::kMaxMessageTypeTag> obs_sent_init_{};
  std::array<bool, wire::kMaxMessageTypeTag> obs_recv_init_{};
};

}  // namespace domino::rpc
