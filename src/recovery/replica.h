// Replica base shared by all five protocols: the key-value state machine,
// the one execute path, durability, and the amnesiac-restart and peer
// catch-up handling around recovery::Persistor. A protocol derives from it
// and supplies only on_message(), recover(), fill_catchup() and
// merge_catchup(), so measured differences between the protocols come from
// the protocols and not from five copies of the substrate.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "recovery/durable.h"
#include "recovery/messages.h"
#include "rpc/node.h"
#include "statemachine/kvstore.h"

namespace domino::recovery {

class Replica : public rpc::Node {
 public:
  /// Called on every command execution (the harness taps this for execution
  /// latency): the executed command's id and the true execution time.
  using ExecuteHook = std::function<void(const RequestId&, TimePoint)>;

  void set_execute_hook(ExecuteHook hook) { exec_hook_ = std::move(hook); }

  /// Bind simulated durable storage: from now on the replica persists its
  /// promises before externalizing them (paying the store's sync latency)
  /// and can survive an amnesiac restart().
  void enable_durability(DurableStore& store) { persistor_.bind(store, *this); }

  /// Start the replica's timers (probing, heartbeats); call after attach().
  /// Replicas without timers do nothing.
  virtual void start() {}

  /// Amnesiac restart (the fault injector's restart hook):
  /// Persistor::begin_restart(), wipe the store, recover(), then
  /// Persistor::request_catchup(). Requires enable_durability() first.
  void restart();

  /// Between restart() and the first catch-up reply merged: the replica
  /// serves no clients and joins no quorums.
  [[nodiscard]] bool catching_up() const { return persistor_.catching_up(); }

  [[nodiscard]] const sm::KvStore& store() const { return store_; }

  /// Protocol state the replica still holds in memory (live log entries,
  /// uncompacted instances, in-flight bookkeeping); bounded by what is in
  /// flight, not by the run's history.
  [[nodiscard]] virtual std::size_t retained_entries() const = 0;

 protected:
  /// `executed_metric` names the counter execute() bumps.
  Replica(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
          const char* executed_metric, sim::LocalClock clock);

  /// Answers a CatchupRequest (store snapshot plus fill_catchup()), even
  /// while catching up itself, so simultaneous recoveries cannot deadlock.
  /// Merges a CatchupReply of the current restart epoch and then rejoins;
  /// drops one of an older epoch. Passes everything else to on_message().
  void on_packet(const net::Packet& packet) final;

  /// Every message other than the catch-up exchange.
  virtual void on_message(const net::Packet& packet) = 0;

  /// Restart body, with the store already wiped: wipe the protocol's own
  /// volatile state, replay the durable image, and re-propose.
  virtual void recover() = 0;

  /// Add the protocol's frontier, watermarks and entries to a catch-up
  /// reply that already carries the store snapshot.
  virtual void fill_catchup(CatchupReply& reply) const = 0;

  /// Merge a catch-up reply of the current restart epoch (`bytes` is its
  /// encoded size) and execute what it made ready; the base then rejoins.
  virtual void merge_catchup(const CatchupReply& reply, std::size_t bytes) = 0;

  /// Called once the replica leaves catch-up.
  virtual void on_rejoined() {}

  /// Apply `command` to the store and report the execution.
  void execute(const sm::Command& command);

  /// Send `msg` to every other replica, in replica order.
  template <typename M>
  void broadcast(const M& msg) {
    for (NodeId r : replicas_) {
      if (r != id()) send(r, msg);
    }
  }

  /// Replace the store with `reply`'s snapshot and count the install.
  void install_snapshot(const CatchupReply& reply, std::size_t bytes);

  const std::vector<NodeId> replicas_;  // the replica set, this replica included
  Persistor persistor_;

 private:
  void handle(const net::Packet& packet, const CatchupRequest& request);
  void handle(const net::Packet& packet, const CatchupReply& reply);

  sm::KvStore store_;
  ExecuteHook exec_hook_;
  obs::CounterHandle obs_executed_;
};

}  // namespace domino::recovery
