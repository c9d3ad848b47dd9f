// Timing decorator around rpc::Context for the real-socket workload.
//
// Wraps send(), every scheduled callback and every registered Receiver of
// an inner context (net::tcp::TcpContext here) in spans, and counts sent
// and received messages and bytes per wire message type. Protocol nodes
// constructed over the decorator run unmodified.
#pragma once

#include <array>
#include <cstdint>

#include "rpc/context.h"
#include "spans.h"
#include "wire/message.h"

namespace perfbench {

class TimedContext final : public domino::rpc::Context {
 public:
  using Counts = std::array<std::uint64_t, domino::wire::kMaxMessageTypeTag>;

  TimedContext(domino::rpc::Context& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  void send(domino::NodeId src, domino::NodeId dst, domino::wire::Payload payload) override;
  void schedule(domino::Duration delay, std::function<void()> fn) override;
  [[nodiscard]] domino::TimePoint now() const override { return inner_.now(); }
  void register_node(domino::NodeId id, std::size_t dc, Receiver receiver) override;
  [[nodiscard]] domino::obs::Sink obs() const override { return inner_.obs(); }

  [[nodiscard]] const Counts& sent() const { return sent_; }
  [[nodiscard]] const Counts& received() const { return received_; }
  [[nodiscard]] std::uint64_t sent_total() const { return sent_total_; }
  [[nodiscard]] std::uint64_t sent_bytes() const { return sent_bytes_; }
  [[nodiscard]] std::uint64_t timers_fired() const { return timers_fired_; }

  /// Static span name of the receive handler for a message type.
  [[nodiscard]] static const char* dispatch_span_name(domino::wire::MessageType type);

 private:
  domino::rpc::Context& inner_;
  SpanRecorder& spans_;
  Counts sent_{};
  Counts received_{};
  std::uint64_t sent_total_ = 0;
  std::uint64_t sent_bytes_ = 0;
  std::uint64_t timers_fired_ = 0;
};

}  // namespace perfbench
