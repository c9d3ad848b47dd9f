#include "recovery/replica.h"

#include <string>
#include <string_view>
#include <utility>

namespace domino::recovery {

Replica::Replica(NodeId id, std::size_t dc, rpc::Context& context,
                 std::vector<NodeId> replicas, const char* executed_metric,
                 sim::LocalClock clock)
    : rpc::Node(id, dc, context, clock), replicas_(std::move(replicas)) {
  obs_executed_ = obs_sink().counter(executed_metric);
}

void Replica::restart() {
  persistor_.begin_restart();
  store_ = sm::KvStore{};
  close_waits();
  recover();
  persistor_.request_catchup(replicas_, store_);
  if (!catching_up()) on_rejoined();  // a lone replica rejoins at once
}

void Replica::on_packet(const net::Packet& packet) {
  const bool handled = dispatch<CatchupRequest, CatchupReply>(
      packet, [this](const net::Packet& p, const auto& msg) { handle(p, msg); });
  if (!handled) on_message(packet);
}

void Replica::handle(const net::Packet& packet, const CatchupRequest& request) {
  // The executed state, in the store's iteration order; the protocol adds
  // its frontier, watermarks and entries.
  CatchupReply reply;
  reply.epoch = request.epoch;
  reply.applied = store_.applied_count();
  reply.snapshot.reserve(store_.size());
  store_.for_each([&reply](std::string_view key, std::string_view value) {
    reply.snapshot.push_back(KvEntry{std::string(key), std::string(value)});
  });
  fill_catchup(reply);
  send(packet.src, reply);
}

void Replica::handle(const net::Packet& packet, const CatchupReply& reply) {
  if (reply.epoch != persistor_.epoch()) return;  // reply to an older incarnation
  merge_catchup(reply, packet.payload.size());
  if (persistor_.finish_rejoin()) on_rejoined();
}

void Replica::execute(const sm::Command& command) {
  store_.apply(command);
  obs_executed_.inc();
  if (exec_hook_) exec_hook_(command.id, true_now());
}

void Replica::install_snapshot(const CatchupReply& reply, std::size_t bytes) {
  store_.install_snapshot(reply.snapshot, reply.applied);
  persistor_.note_catchup_install(bytes);
}

}  // namespace domino::recovery
