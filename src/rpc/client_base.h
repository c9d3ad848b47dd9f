// Shared client machinery for every protocol's client library.
//
// A protocol client derives from ClientBase and implements propose().
// ClientBase provides the open-loop load generator (the paper's clients
// send a fixed 200 requests/second, Section 7.1), send-time bookkeeping,
// commit dedup, the commit-latency hook the evaluation harness taps, and —
// when enabled via set_request_timeout() — a generic per-request timeout
// with retries: a request that has not committed within the timeout is
// handed to on_request_timeout() (default: re-propose), up to a bounded
// number of attempts, after which it is abandoned and accounted for. The
// invariant  submitted == committed + abandoned + inflight  always holds,
// which is what the chaos tests' liveness accounting checks.
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/interval_set.h"
#include "rpc/node.h"
#include "statemachine/workload.h"

namespace domino::rpc {

class ClientBase : public Node {
 public:
  /// Invoked exactly once per request when the client learns it committed.
  using CommitHook =
      std::function<void(const RequestId&, TimePoint sent_at, TimePoint committed_at)>;
  /// Invoked when a request is submitted (before the proposal is sent).
  using SendHook = std::function<void(const RequestId&, TimePoint sent_at)>;

  ClientBase(NodeId id, std::size_t dc, Context& context, sim::LocalClock clock);

  /// Start the client's timers (e.g. probing); call after attach() and
  /// before submitting load. Clients without timers do nothing.
  virtual void start() {}

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void set_send_hook(SendHook hook) { send_hook_ = std::move(hook); }

  /// Start submitting `rps` requests per second drawn from `workload`.
  /// The generator must outlive the client.
  void start_load(sm::WorkloadGenerator& workload, double rps);
  void stop_load();

  /// Submit one command now (records its send time, then calls propose()).
  void submit(sm::Command command);

  /// Enable the per-request timeout: a request that has not committed
  /// `timeout` after its last (re-)proposal is retried via
  /// on_request_timeout(), at most `max_retries` times, then abandoned.
  /// Duration::zero() disables (the default).
  void set_request_timeout(Duration timeout, std::size_t max_retries = 3);

  [[nodiscard]] std::uint64_t submitted_count() const { return obs_submitted_.value(); }
  [[nodiscard]] std::uint64_t committed_count() const { return obs_committed_.value(); }
  [[nodiscard]] std::uint64_t inflight_count() const { return sent_at_.size(); }
  /// Timed-out re-proposals issued so far.
  [[nodiscard]] std::uint64_t retry_count() const { return obs_retries_.value(); }
  /// Requests given up on after exhausting retries (each is accounted for:
  /// submitted == committed + abandoned + inflight).
  [[nodiscard]] std::uint64_t abandoned_count() const { return abandoned_; }

 protected:
  /// Protocol-specific proposal path.
  virtual void propose(const sm::Command& command) = 0;

  /// Called when a request times out with retry budget left. `attempt` is
  /// 1 for the first retry. The default re-proposes the command unchanged;
  /// protocol clients override this to fail over (e.g. Domino re-routes a
  /// timed-out DFP request through DM).
  virtual void on_request_timeout(const sm::Command& command, std::size_t attempt);

  /// Protocol clients call this when they learn a request committed.
  /// Duplicate notifications are ignored.
  void handle_committed(const RequestId& id);

  /// Called exactly once per request, when its first commit notification
  /// lands and the send time is still known — the client-side point where
  /// realized latency is exact. Protocol clients override it to reconcile
  /// per-request predictions (the Domino client closes its DecisionRecord
  /// here); the default does nothing.
  virtual void on_committed(const RequestId& id, TimePoint sent_at, TimePoint committed_at);

 private:
  struct PendingRequest {
    sm::Command command;
    std::size_t attempts = 0;  // retries issued so far
  };

  void arm_timeout(const RequestId& id, std::size_t attempt);
  void init_obs();

  CommitHook commit_hook_;
  SendHook send_hook_;
  RepeatingTimer load_timer_;
  obs::CounterHandle obs_submitted_;
  obs::CounterHandle obs_committed_;
  obs::CounterHandle obs_retries_;
  obs::CounterHandle obs_abandoned_;
  obs::HistogramHandle obs_commit_latency_;
  std::unordered_map<RequestId, TimePoint> sent_at_;  // true send time
  // Committed request seqs. Seqs commit mostly in order, so they coalesce
  // into a few intervals instead of one hash node per commit.
  IntervalSet done_seqs_;
  std::unordered_map<RequestId, PendingRequest> pending_;  // timeout-tracked
  std::unordered_set<std::uint64_t> abandoned_seqs_;  // for late-commit fixup
  Duration request_timeout_ = Duration::zero();       // zero = disabled
  std::size_t max_retries_ = 0;
  /// Net of late commits, so not client.abandoned's count of abandon events.
  std::uint64_t abandoned_ = 0;
};

}  // namespace domino::rpc
