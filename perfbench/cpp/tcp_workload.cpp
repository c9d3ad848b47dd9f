// tcp_loopback: Domino over real loopback sockets. Three replicas and one
// client share one EventLoop on one thread; the client keeps 8 requests
// outstanding (closed loop). Commits are cut into fixed batches of 10,000;
// wall-clock metrics are medians over the batches of a run.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog.h"
#include "core/client.h"
#include "core/replica.h"
#include "layers.h"
#include "net/tcp/tcp_context.h"
#include "report.h"
#include "spans.h"
#include "timed_context.h"
#include "workloads.h"

namespace perfbench {

using namespace domino;
using net::tcp::EventLoop;
using net::tcp::TcpContext;

namespace {

constexpr std::size_t kOutstanding = 8;
constexpr std::size_t kBatch = 10'000;
const Duration kWarmup = milliseconds(300);
const Duration kProbeInterval = milliseconds(5);
const Duration kProbeWindow = milliseconds(500);
constexpr std::size_t kSetups = 7;

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Three Domino replicas and a client on one event loop. With a span
/// recorder, the nodes run over a TimedContext around the TcpContext.
class Cluster {
 public:
  Cluster(std::uint64_t seed, SpanRecorder* spans) : generator_(workload_config(), seed) {
    if (spans != nullptr) timed_ = std::make_unique<TimedContext>(tcp_, *spans);
    rpc::Context& ctx = timed_ ? static_cast<rpc::Context&>(*timed_) : tcp_;
    for (const NodeId r : rids_) tcp_.host_node(r, {"127.0.0.1", 0});
    tcp_.host_node(kClient, {"127.0.0.1", 0});
    core::ReplicaConfig rc;
    rc.heartbeat_interval = kProbeInterval;
    rc.prober.probe_interval = kProbeInterval;
    rc.prober.window = kProbeWindow;
    for (const NodeId r : rids_) {
      replicas_.push_back(std::make_unique<core::Replica>(r, ctx, rids_, rids_[0], rc));
      replicas_.back()->attach();
      replicas_.back()->start();
    }
    core::ClientConfig cc;
    cc.prober.probe_interval = kProbeInterval;
    cc.prober.window = kProbeWindow;
    client_ = std::make_unique<core::Client>(kClient, ctx, rids_, cc);
    client_->attach();
    client_->start();
    client_->set_commit_hook([this](const RequestId&, TimePoint sent, TimePoint committed) {
      on_commit(sent, committed);
    });
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  static sm::WorkloadConfig workload_config() { return sm::WorkloadConfig{}; }

  /// Pump until both subsystems have latency estimates (every connection is
  /// up and has carried probes), or the deadline passes.
  bool wait_ready(Duration deadline) {
    const TimePoint until = loop_.now() + deadline;
    while (loop_.now() < until) {
      const core::Client::Estimates est = client_->estimates();
      if (est.dfp != Duration::max() && est.dm != Duration::max()) return true;
      poll();
    }
    return false;
  }

  void pump_for(Duration d) {
    const TimePoint until = loop_.now() + d;
    while (loop_.now() < until) poll();
  }

  /// Closed loop for `duration`; returns when the time is up (requests
  /// still outstanding keep running until drain()).
  void run_closed_loop(double duration_s, SpanRecorder* spans) {
    spans_ = spans;
    running_ = true;
    batch_start_ = now_s();
    for (std::size_t i = 0; i < kOutstanding; ++i) submit_next();
    const double t0 = now_s();
    while (now_s() - t0 < duration_s) poll();
    measured_s_ = now_s() - t0;
    running_ = false;
    spans_ = nullptr;
  }

  /// Let outstanding requests commit and every replica apply every commit.
  bool drain(Duration deadline) {
    const TimePoint until = loop_.now() + deadline;
    while (loop_.now() < until) {
      bool applied = client_->inflight_count() == 0;
      for (const auto& r : replicas_) {
        applied = applied && r->store().applied_count() >= client_->committed_count();
      }
      if (applied) return true;
      poll();
    }
    return false;
  }

  [[nodiscard]] bool stores_agree() const {
    for (const auto& r : replicas_) {
      if (r->store().items() != replicas_.front()->store().items()) return false;
    }
    return true;
  }

  struct Batch {
    double wall_s;
    double p50_ms;
    double p999_ms;
  };
  [[nodiscard]] const std::vector<Batch>& batches() const { return batches_; }
  [[nodiscard]] core::Client& client() { return *client_; }
  [[nodiscard]] const TimedContext* timed() const { return timed_.get(); }
  [[nodiscard]] std::uint64_t commits() const { return commits_; }
  [[nodiscard]] double measured_s() const { return measured_s_; }
  [[nodiscard]] std::uint64_t polls() const { return polls_; }
  [[nodiscard]] std::uint64_t poll_events() const { return poll_events_; }
  [[nodiscard]] double busy_s() const { return busy_s_; }

 private:
  static constexpr NodeId kClient{100};

  void poll() {
    const std::uint64_t timers_before = timed_ ? timed_->timers_fired() : 0;
    const double t0 = spans_ != nullptr ? now_s() : 0.0;
    int events = 0;
    if (spans_ != nullptr) {
      ScopedSpan span(*spans_, "tcp.poll");
      events = loop_.poll(milliseconds(1));
    } else {
      events = loop_.poll(milliseconds(1));
    }
    if (spans_ != nullptr) {
      ++polls_;
      poll_events_ += static_cast<std::uint64_t>(std::max(events, 0));
      if (events > 0 || timed_->timers_fired() != timers_before) busy_s_ += now_s() - t0;
    }
  }

  void submit_next() { client_->submit(generator_.next(kClient)); }

  void on_commit(TimePoint sent, TimePoint committed) {
    if (!running_) return;
    ++commits_;
    latencies_.push_back((committed - sent).millis());
    if (latencies_.size() == kBatch) {
      const double now = now_s();
      std::sort(latencies_.begin(), latencies_.end());
      // Nearest-rank p50 and p99.9; the latter has 10 samples beyond it.
      batches_.push_back(Batch{now - batch_start_, latencies_[kBatch / 2 - 1],
                               latencies_[kBatch - kBatch / 1000 - 1]});
      latencies_.clear();
      batch_start_ = now;
    }
    submit_next();
  }

  EventLoop loop_;
  TcpContext tcp_{loop_};
  std::unique_ptr<TimedContext> timed_;
  std::vector<NodeId> rids_{NodeId{0}, NodeId{1}, NodeId{2}};
  std::vector<std::unique_ptr<core::Replica>> replicas_;
  std::unique_ptr<core::Client> client_;
  sm::WorkloadGenerator generator_;
  SpanRecorder* spans_ = nullptr;
  bool running_ = false;
  std::vector<double> latencies_;
  std::vector<Batch> batches_;
  double batch_start_ = 0.0;
  double measured_s_ = 0.0;
  std::uint64_t commits_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t poll_events_ = 0;
  double busy_s_ = 0.0;
};

/// Bring a cluster up: workload generator, sockets, nodes, connections and
/// first estimates. The caller runs the fixed warm-up, which is not part of
/// the set-up time.
std::unique_ptr<Cluster> bring_up(std::uint64_t seed, SpanRecorder* spans, double& setup_s,
                                  Report& report) {
  const double t0 = now_s();
  auto cluster = std::make_unique<Cluster>(seed, spans);
  if (!cluster->wait_ready(seconds(10))) report.fail("tcp: cluster never produced estimates");
  setup_s = now_s() - t0;
  return cluster;
}

/// Set up `count` times and keep the last cluster, warmed up.
std::unique_ptr<Cluster> set_up(std::uint64_t seed, SpanRecorder* spans, std::size_t count,
                                std::vector<double>& setup_s, Report& report) {
  std::unique_ptr<Cluster> cluster;
  for (std::size_t i = 0; i < count; ++i) {
    cluster.reset();  // the previous cluster's sockets close first
    double s = 0.0;
    cluster = bring_up(seed, spans, s, report);
    setup_s.push_back(s);
  }
  cluster->pump_for(kWarmup);
  return cluster;
}

/// Stop, drain and check the run; counts its requests.
void finish(Cluster& cluster, Report& report) {
  if (!cluster.drain(seconds(10))) report.fail("tcp: outstanding requests never drained");
  if (!cluster.stores_agree()) report.fail("tcp: replica stores differ after the run");
  const core::Client& c = cluster.client();
  if (c.submitted_count() != c.committed_count() + c.abandoned_count() + c.inflight_count()) {
    report.fail("tcp: submitted != committed + abandoned + in flight");
  }
  report.count_requests(c.submitted_count(), c.abandoned_count() + c.inflight_count());
}

/// TcpContext::send between two hosted nodes on a fresh loop; checks that
/// every frame arrives, in order.
Timed replay_tcp_send(std::size_t calls, const std::vector<sm::Command>& commands) {
  Timed out;
  EventLoop loop;
  TcpContext tcp(loop);
  const NodeId a{0}, b{1};
  tcp.host_node(a, {"127.0.0.1", 0});
  tcp.host_node(b, {"127.0.0.1", 0});
  std::uint64_t expect = 0;
  bool ordered = true;
  tcp.register_node(a, 0, [](const net::Packet&) {});
  tcp.register_node(b, 0, [&](const net::Packet& p) {
    const auto m = wire::decode_message<core::DmAccept>(p.payload);
    if (static_cast<std::uint64_t>(m.ts) != expect) ordered = false;
    ++expect;
  });
  double send_ns = 0;
  const std::size_t window = 64;  // sends between polls, like a busy node
  for (std::size_t i = 0; i < calls; ++i) {
    wire::Payload payload = wire::encode_message(core::DmAccept{
        static_cast<std::int64_t>(i), 0, commands[i % commands.size()]});
    const double t0 = now_s();
    tcp.send(a, b, std::move(payload));
    send_ns += (now_s() - t0) * 1e9;
    if ((i + 1) % window == 0) {
      const TimePoint until = loop.now() + seconds(5);
      while (expect < i + 1 && loop.now() < until) loop.poll(milliseconds(1));
    }
  }
  const TimePoint until = loop.now() + seconds(5);
  while (expect < calls && loop.now() < until) loop.poll(milliseconds(1));
  out.ns_per_call = send_ns / static_cast<double>(calls);
  if (expect != calls) out.error = "tcp: replayed frames were lost";
  if (!ordered) out.error = "tcp: replayed frames arrived out of order";
  return out;
}

/// What one traced closed-loop measurement saw through the decorator.
struct TracedLoop {
  double wall_s = 0.0;
  std::uint64_t commits = 0;
  TimedContext::Counts sent{};
  TimedContext::Counts received{};
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t polls = 0;
  std::uint64_t poll_events = 0;
  double busy_s = 0.0;
};

/// Bring up a cluster over a TimedContext recording into `spans`, run the
/// closed loop for `seconds` inside a "workload" span, drain and check it.
TracedLoop run_traced_loop(std::uint64_t seed, double seconds, SpanRecorder& spans,
                           Report& report) {
  std::vector<double> setup;
  auto cluster = set_up(seed, &spans, 1, setup, report);
  const TimedContext& timed = *cluster->timed();
  const TimedContext::Counts sent0 = timed.sent();
  const TimedContext::Counts recv0 = timed.received();
  const std::uint64_t msgs0 = timed.sent_total();
  const std::uint64_t bytes0 = timed.sent_bytes();
  {
    ScopedSpan span(spans, "workload");
    cluster->run_closed_loop(seconds, &spans);
  }
  TracedLoop t;
  t.wall_s = cluster->measured_s();
  t.commits = cluster->commits();
  for (std::size_t i = 0; i < t.sent.size(); ++i) {
    t.sent[i] = timed.sent()[i] - sent0[i];
    t.received[i] = timed.received()[i] - recv0[i];
  }
  t.msgs = timed.sent_total() - msgs0;
  t.bytes = timed.sent_bytes() - bytes0;
  t.polls = cluster->polls();
  t.poll_events = cluster->poll_events();
  t.busy_s = cluster->busy_s();
  finish(*cluster, report);
  return t;
}

/// The rpc and tcp layer metrics of a traced loop, plus the TcpContext::send
/// replay.
void report_tcp_layers(const TracedLoop& t, const SpanRecorder& spans,
                       const std::vector<sm::Command>& commands, Report& report) {
  std::uint64_t dispatch_n = 0;
  std::int64_t dispatch_self = 0;
  for (std::size_t type = 0; type < wire::kMaxMessageTypeTag; ++type) {
    const auto& tot =
        spans.totals(TimedContext::dispatch_span_name(static_cast<wire::MessageType>(type)));
    dispatch_n += tot.count;
    dispatch_self += tot.self_ns;
  }
  const auto& send = spans.totals("rpc.send");
  report.layer("rpc.dispatch_self_ns",
               ratio(static_cast<double>(dispatch_self), static_cast<double>(dispatch_n)), "ns");
  report.layer("rpc.send_ns",
               ratio(static_cast<double>(send.total_ns), static_cast<double>(send.count)), "ns");
  report.layer("tcp.poll_busy_frac", ratio(t.busy_s, t.wall_s), "ratio");
  report.layer("tcp.events_per_poll",
               ratio(static_cast<double>(t.poll_events), static_cast<double>(t.polls)), "count");
  const Timed r = replay_tcp_send(100'000, commands);
  if (!r.error.empty()) report.fail("layer replay: " + r.error);
  report.layer("tcp.send_self_ns", r.ns_per_call, "ns");
}

void print_batches(Report& report, const std::vector<Spread>& s) {
  report.line("  %-24s median %.6g s    (q1 %.6g, q3 %.6g, n=%zu batches)", "run_wall_s",
              s[0].median, s[0].q1, s[0].q3, s[0].n);
  report.line("  %-24s median %.6g 1/s  (q1 %.6g, q3 %.6g)", "commits per second", s[1].median,
              s[1].q1, s[1].q3);
  report.line("  %-24s median %.6g ms   (q1 %.6g, q3 %.6g; %zu samples per batch)",
              "commit_p50_ms.domino", s[2].median, s[2].q1, s[2].q3, kBatch);
  report.line("  %-24s median %.6g ms   (q1 %.6g, q3 %.6g; %zu beyond it per batch)",
              "commit_p999_ms.domino", s[3].median, s[3].q1, s[3].q3, kBatch / 1000);
}

}  // namespace

void measure_tcp_layers(std::uint64_t seed, double seconds, Report& report) {
  SpanRecorder spans(true);
  const TracedLoop t = run_traced_loop(seed, seconds, spans, report);
  report_tcp_layers(t, spans, sample_commands(Cluster::workload_config(), 4096, seed), report);
}

void run_tcp_loopback(const Options& o, Report& report) {
  report.line("workload tcp_loopback: Domino, 3 replicas + 1 client over loopback TCP, "
              "%zu outstanding, seed %" PRIu64 ", %s pass",
              kOutstanding, o.seed, o.trace ? "traced" : "untraced");
  std::vector<double> setup;
  if (!o.trace) {
    auto cluster = set_up(o.seed, nullptr, kSetups, setup, report);
    cluster->run_closed_loop(o.seconds, nullptr);
    finish(*cluster, report);
    std::vector<double> wall, rate, p50, p999;
    for (const Cluster::Batch& b : cluster->batches()) {
      wall.push_back(b.wall_s);
      rate.push_back(static_cast<double>(kBatch) / b.wall_s);
      p50.push_back(b.p50_ms);
      p999.push_back(b.p999_ms);
    }
    if (wall.size() < 3) report.fail("tcp: fewer than 3 batches of 10,000 commits measured");
    const std::vector<Spread> s = {spread_of(wall), spread_of(rate), spread_of(p50),
                                   spread_of(p999)};
    const Spread su = spread_of(setup);
    report.line("  %-24s median %.6g s    (q1 %.6g, q3 %.6g, n=%zu)", "setup_s", su.median,
                su.q1, su.q3, su.n);
    print_batches(report, s);
    const core::Client& client = cluster->client();
    report.line("  client path: DFP chosen %" PRIu64 ", DM chosen %" PRIu64
                ", DFP fast learns %" PRIu64 ", DFP slow replies %" PRIu64,
                client.dfp_chosen(), client.dm_chosen(), client.dfp_fast_learns(),
                client.dfp_slow_replies());

    report.e2e("setup_s", su.median, "s");
    report.e2e("commit_p50_ms.domino", s[2].median, "ms");
    report.e2e("commit_p999_ms.domino", s[3].median, "ms");
    // One protocol runs here, so the geometric mean is Domino's own value.
    report.e2e("commit_p50_ms.geomean", s[2].median, "ms");
    report.e2e("commit_p999_ms.geomean", s[3].median, "ms");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced pass: half the time untraced, half through the timing decorator.
  zero_layers(report);
  double plain_cps = 0.0;
  {
    auto plain = set_up(o.seed, nullptr, 1, setup, report);
    plain->run_closed_loop(o.seconds / 2, nullptr);
    plain_cps = static_cast<double>(plain->commits()) / plain->measured_s();
    std::vector<double> wall;
    for (const Cluster::Batch& b : plain->batches()) wall.push_back(b.wall_s);
    report.layer("run_wall_s", spread_of(wall).median, "s");
    finish(*plain, report);
  }
  SpanRecorder spans(true);
  const TracedLoop t = run_traced_loop(o.seed, o.seconds / 2, spans, report);
  const double commits = static_cast<double>(t.commits);
  std::uint64_t received = 0;
  for (const std::uint64_t n : t.received) received += n;
  report.layer("net.pkts_per_commit.domino", ratio(static_cast<double>(t.msgs), commits), "count");
  report.layer("net.bytes_per_commit.domino", ratio(static_cast<double>(t.bytes), commits), "B");
  report.layer("wire.bytes_per_msg",
               ratio(static_cast<double>(t.bytes), static_cast<double>(t.msgs)), "B");
  report.layer("rpc.recv_per_commit", ratio(static_cast<double>(received), commits), "count");
  // The loopback cluster has no simulator, simulated network or delay
  // trace: sim.*, net.send_ns and wan.* stay 0.
  ReplayInputs in;
  in.seed = o.seed;
  in.workload = Cluster::workload_config();
  in.window_samples = static_cast<std::size_t>(kProbeWindow.nanos() / kProbeInterval.nanos());
  in.probe_interval = kProbeInterval;
  for (const wire::MessageType type : codec_types()) {
    const std::string name = wire::message_type_name(type);
    in.mix[name] = static_cast<double>(t.received[static_cast<std::size_t>(type)]);
    report.layer("rpc.recv_per_commit." + name, ratio(in.mix[name], commits), "count");
  }
  const auto probe = static_cast<std::size_t>(wire::MessageType::kProbe);
  report.layer("measure.probes_per_s", ratio(static_cast<double>(t.sent[probe]), t.wall_s),
               "1/s");
  report_tcp_layers(t, spans, sample_commands(in.workload, 4096, o.seed), report);
  const double traced_cps = commits / t.wall_s;
  report.layer("obs.tracing_overhead_frac", plain_cps / traced_cps - 1.0, "ratio");
  report.line("  untraced %.0f commits/s, traced %.0f commits/s", plain_cps, traced_cps);
  {
    ScopedSpan span(spans, "replay");
    replay_layers(report, spans, in);
  }

  char header[512];
  std::snprintf(header, sizeof header,
                "{\"kind\":\"meta\",\"workload\":\"tcp_loopback\",\"seed\":%" PRIu64
                ",\"run_wall_s\":%.9f,\"untraced_commits_per_s\":%.3f,"
                "\"traced_commits_per_s\":%.3f}",
                o.seed, t.wall_s, plain_cps, traced_cps);
  write_spans(report, spans, o.spans_path, header, {});
}

}  // namespace perfbench
