#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/window_estimator.h"
#include "core/messages.h"
#include "measure/messages.h"
#include "net/network.h"
#include "paxos/messages.h"
#include "report.h"
#include "sim/simulator.h"
#include "spans.h"
#include "wan/delay_trace.h"
#include "wan/empirical.h"

namespace perfbench {

using namespace domino;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Encode every message, then decode every payload, timing each phase; the
/// check re-encodes each decoded message and compares bytes.
template <typename M>
CodecTimed codec_case(const std::vector<M>& messages) {
  CodecTimed out;
  std::vector<wire::Payload> payloads;
  payloads.reserve(messages.size());
  const auto t0 = Clock::now();
  for (const M& m : messages) payloads.push_back(wire::encode_message(m));
  const auto t1 = Clock::now();
  std::vector<M> decoded;
  decoded.reserve(payloads.size());
  for (const wire::Payload& p : payloads) decoded.push_back(wire::decode_message<M>(p));
  const auto t2 = Clock::now();
  double bytes = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    bytes += static_cast<double>(payloads[i].size());
    if (wire::encode_message(decoded[i]) != payloads[i]) {
      out.error = std::string("codec round trip changed a ") +
                  wire::message_type_name(M::kType) + " message";
      break;
    }
  }
  const auto n = static_cast<double>(messages.size());
  out.encode_ns = ns_between(t0, t1) / n;
  out.decode_ns = ns_between(t1, t2) / n;
  out.bytes_per_msg = bytes / n;
  return out;
}

template <typename M, typename Make>
CodecTimed build_and_replay(std::size_t calls, Make make) {
  std::vector<M> messages;
  messages.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) messages.push_back(make(i));
  return codec_case(messages);
}

}  // namespace

const std::vector<wire::MessageType>& codec_types() {
  static const std::vector<wire::MessageType> types = {
      wire::MessageType::kProbe,        wire::MessageType::kProbeReply,
      wire::MessageType::kDfpPropose,   wire::MessageType::kDfpAcceptNotice,
      wire::MessageType::kDmAccept,     wire::MessageType::kDmAcceptReply,
      wire::MessageType::kDmCommit,     wire::MessageType::kPaxosAccept,
  };
  return types;
}

std::vector<sm::Command> sample_commands(const sm::WorkloadConfig& config, std::size_t n,
                                         std::uint64_t seed) {
  sm::WorkloadGenerator gen(config, seed);
  std::vector<sm::Command> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(gen.next(NodeId{1000 + static_cast<std::uint32_t>(i % 24)}));
  }
  return out;
}

CodecTimed replay_codec(wire::MessageType type, const std::vector<sm::Command>& commands,
                        std::size_t calls) {
  // Field values follow a running deployment: timestamps are nanosecond
  // clock readings, sequence numbers and log indexes grow with the run.
  const std::int64_t base_ts = 1'700'000'000'000'000'000;
  const auto cmd = [&](std::size_t i) -> const sm::Command& {
    return commands[i % commands.size()];
  };
  const auto ts = [&](std::size_t i) { return base_ts + static_cast<std::int64_t>(i) * 833'333; };
  switch (type) {
    case wire::MessageType::kProbe:
      return build_and_replay<measure::Probe>(calls, [&](std::size_t i) {
        return measure::Probe{i, TimePoint{ts(i)}};
      });
    case wire::MessageType::kProbeReply:
      return build_and_replay<measure::ProbeReply>(calls, [&](std::size_t i) {
        return measure::ProbeReply{i, TimePoint{ts(i)}, TimePoint{ts(i) + 40'000'000},
                                   Duration{95'000'000 + static_cast<std::int64_t>(i % 977)}};
      });
    case wire::MessageType::kDfpPropose:
      return build_and_replay<core::DfpPropose>(calls, [&](std::size_t i) {
        return core::DfpPropose{ts(i), cmd(i)};
      });
    case wire::MessageType::kDfpAcceptNotice:
      return build_and_replay<core::DfpAcceptNotice>(calls, [&](std::size_t i) {
        return core::DfpAcceptNotice{ts(i), i % 7 != 0, cmd(i), TimePoint{ts(i) + 1'000}};
      });
    case wire::MessageType::kDmAccept:
      return build_and_replay<core::DmAccept>(calls, [&](std::size_t i) {
        return core::DmAccept{ts(i), static_cast<std::uint32_t>(i % 3), cmd(i)};
      });
    case wire::MessageType::kDmAcceptReply:
      return build_and_replay<core::DmAcceptReply>(calls, [&](std::size_t i) {
        return core::DmAcceptReply{ts(i), static_cast<std::uint32_t>(i % 3)};
      });
    case wire::MessageType::kDmCommit:
      return build_and_replay<core::DmCommit>(calls, [&](std::size_t i) {
        return core::DmCommit{ts(i), static_cast<std::uint32_t>(i % 3)};
      });
    case wire::MessageType::kPaxosAccept:
      return build_and_replay<paxos::Accept>(calls, [&](std::size_t i) {
        return paxos::Accept{100'000 + i, cmd(i)};
      });
    default: break;
  }
  CodecTimed out;
  out.error = std::string("no codec replay for ") + wire::message_type_name(type);
  return out;
}

void report_wire_layers(Report& report, const std::vector<sm::Command>& commands,
                        const std::map<std::string, double>& received) {
  double encode = 0, decode = 0, weight = 0;
  for (const wire::MessageType t : codec_types()) {
    const CodecTimed c = replay_codec(t, commands, 50'000);
    if (!c.error.empty()) report.fail("layer replay: " + c.error);
    const std::string name = wire::message_type_name(t);
    report.layer("wire.encode_ns." + name, c.encode_ns, "ns");
    report.layer("wire.decode_ns." + name, c.decode_ns, "ns");
    const auto it = received.find(name);
    const double n = it == received.end() ? 0.0 : it->second;
    encode += n * c.encode_ns;
    decode += n * c.decode_ns;
    weight += n;
  }
  report.layer("wire.encode_ns", weight == 0 ? 0.0 : encode / weight, "ns");
  report.layer("wire.decode_ns", weight == 0 ? 0.0 : decode / weight, "ns");
}

Timed replay_sim_events(std::size_t depth, std::size_t calls, std::uint64_t seed) {
  Timed out;
  sim::Simulator simulator;
  Rng rng(seed);
  const std::int64_t horizon_ns = 200'000'000;  // events spread over 200 ms
  std::uint64_t executed = 0;
  TimePoint last = TimePoint::epoch();
  bool ordered = true;
  const auto action = [&] {
    if (simulator.now() < last) ordered = false;
    last = simulator.now();
    ++executed;
  };
  depth = std::max<std::size_t>(depth, 1);
  for (std::size_t i = 0; i < depth; ++i) {
    simulator.schedule_after(Duration{rng.uniform_i64(1, horizon_ns)}, action);
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    simulator.schedule_after(Duration{rng.uniform_i64(1, horizon_ns)}, action);
    simulator.step();
  }
  const auto t1 = Clock::now();
  simulator.run();
  out.ns_per_call = ns_between(t0, t1) / static_cast<double>(calls);
  if (!ordered) out.error = "simulator ran events out of timestamp order";
  if (executed != calls + depth) out.error = "simulator lost or duplicated events";
  return out;
}

Timed replay_net_send(const net::Topology& topology, const std::vector<std::size_t>& node_dcs,
                      const net::JitterParams& jitter, std::size_t calls, std::uint64_t seed) {
  Timed out;
  sim::Simulator simulator;
  net::Network network(simulator, topology, seed);
  network.use_default_links(jitter);
  const std::size_t n = node_dcs.size();
  // Each payload carries its per-channel sequence number; the receiver
  // checks that every (src, dst) channel delivers 0, 1, 2, ... in order.
  std::vector<std::uint64_t> next_sent(n * n, 0);
  std::vector<std::uint64_t> next_recv(n * n, 0);
  std::uint64_t delivered = 0;
  bool fifo = true;
  for (std::size_t i = 0; i < n; ++i) {
    network.register_node(NodeId{static_cast<std::uint32_t>(i)}, node_dcs[i],
                          [&, i](const net::Packet& p) {
                            wire::ByteReader r{p.payload};
                            const std::uint64_t seq = r.u64();
                            std::uint64_t& expect = next_recv[p.src.value() * n + i];
                            if (seq != expect) fifo = false;
                            expect = seq + 1;
                            ++delivered;
                          });
  }
  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<std::pair<std::size_t, std::size_t>> pairs(calls);
  for (auto& [a, b] : pairs) {
    a = static_cast<std::size_t>(rng.uniform_i64(0, static_cast<std::int64_t>(n) - 1));
    b = static_cast<std::size_t>(rng.uniform_i64(0, static_cast<std::int64_t>(n) - 1));
  }
  const std::size_t batch = 256;  // sends between drains, like a busy run
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    const auto [a, b] = pairs[i];
    wire::ByteWriter w;
    w.u64(next_sent[a * n + b]++);
    w.u64(0);  // pad to the size of a small protocol message
    network.send(NodeId{static_cast<std::uint32_t>(a)}, NodeId{static_cast<std::uint32_t>(b)},
                 w.take());
    if ((i + 1) % batch == 0) simulator.run();
  }
  simulator.run();
  const auto t1 = Clock::now();
  out.ns_per_call = ns_between(t0, t1) / static_cast<double>(calls);
  if (!fifo) out.error = "network delivered a channel out of FIFO order";
  if (delivered != calls) out.error = "network lost or duplicated packets";
  return out;
}

EstimatorTimed replay_window_estimator(std::size_t window_samples, Duration interval,
                                       double percentile, std::size_t calls,
                                       std::uint64_t seed) {
  EstimatorTimed out;
  const Duration window = interval * static_cast<std::int64_t>(window_samples);
  WindowEstimator estimator(window);
  Rng rng(seed);
  std::vector<Duration> values(calls);
  for (Duration& v : values) v = Duration{static_cast<std::int64_t>(rng.lognormal(17.0, 0.3))};
  std::vector<Duration> answers(calls);
  double add_ns = 0;
  double query_ns = 0;
  TimePoint now = TimePoint::epoch();
  for (std::size_t i = 0; i < calls; ++i) {
    now += interval;
    const auto t0 = Clock::now();
    estimator.add(now, values[i]);
    const auto t1 = Clock::now();
    answers[i] = *estimator.percentile(now, percentile);
    const auto t2 = Clock::now();
    add_ns += ns_between(t0, t1);
    query_ns += ns_between(t1, t2);
  }
  // Reference: sort the samples whose time is within [now - window, now] and
  // take the nearest rank.
  std::deque<std::pair<TimePoint, Duration>> live;
  now = TimePoint::epoch();
  for (std::size_t i = 0; i < calls; ++i) {
    now += interval;
    live.emplace_back(now, values[i]);
    while (live.front().first < now - window) live.pop_front();
    std::vector<Duration> sorted;
    sorted.reserve(live.size());
    for (const auto& [at, v] : live) sorted.push_back(v);
    std::sort(sorted.begin(), sorted.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(percentile / 100.0 * static_cast<double>(sorted.size())));
    if (rank > 0) --rank;
    if (sorted[rank] != answers[i]) {
      out.error = "WindowEstimator percentile disagrees with the sorted reference";
      break;
    }
  }
  out.add_ns = add_ns / static_cast<double>(calls);
  out.percentile_ns = query_ns / static_cast<double>(calls);
  return out;
}

WorkloadTimed replay_workload(const sm::WorkloadConfig& config, std::size_t ctors,
                              std::size_t calls, std::uint64_t seed) {
  WorkloadTimed out;
  std::vector<double> ctor_ms;
  for (std::size_t i = 0; i < ctors; ++i) {
    const auto t0 = Clock::now();
    sm::WorkloadGenerator gen(config, seed + i);
    const auto t1 = Clock::now();
    ctor_ms.push_back(ns_between(t0, t1) / 1e6);
  }
  out.ctor_ms = spread_of(ctor_ms).median;
  sm::WorkloadGenerator a(config, seed);
  sm::WorkloadGenerator b(config, seed);
  std::vector<sm::Command> stream;
  stream.reserve(calls);
  const NodeId client{1000};
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) stream.push_back(a.next(client));
  const auto t1 = Clock::now();
  out.next_ns = ns_between(t0, t1) / static_cast<double>(calls);
  for (const sm::Command& c : stream) {
    if (b.next(client) != c) {
      out.error = "WorkloadGenerator streams differ for equal seeds";
      break;
    }
    if (c.key.size() != config.key_bytes || c.value.size() != config.value_bytes) {
      out.error = "WorkloadGenerator produced a key or value of the wrong width";
      break;
    }
  }
  return out;
}

WanTimed replay_wan(const std::string& csv_path, std::size_t loads, std::size_t calls,
                    std::uint64_t seed) {
  WanTimed out;
  std::vector<double> load_s;
  wan::DelayTrace trace;
  for (std::size_t i = 0; i < loads; ++i) {
    const auto t0 = Clock::now();
    trace = wan::DelayTrace::load(csv_path);
    const auto t1 = Clock::now();
    load_s.push_back(ns_between(t0, t1) / 1e9);
  }
  out.load_s = spread_of(load_s).median;
  if (trace.link_count() == 0) {
    out.error = "delay trace has no links";
    return out;
  }
  const auto samples = trace.samples_at(0);
  Duration lo = Duration::max();
  Duration hi = Duration::zero();
  for (const wan::TraceSample& s : *samples) {
    lo = std::min(lo, s.owd);
    hi = std::max(hi, s.owd);
  }
  wan::EmpiricalLatency model(samples, wan::EmpiricalConfig{});
  Rng rng(seed);
  std::vector<Duration> drawn(calls);
  // Advance virtual time the way a busy link does: many sends per sample
  // interval, so the sorted window is rebuilt only occasionally.
  const Duration step = microseconds(250);
  TimePoint now = TimePoint::epoch();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    now += step;
    drawn[i] = model.sample(now, rng);
  }
  const auto t1 = Clock::now();
  out.sample_ns = ns_between(t0, t1) / static_cast<double>(calls);
  for (const Duration d : drawn) {
    if (d < lo || d > hi) {
      out.error = "EmpiricalLatency sampled outside the trace's delay range";
      break;
    }
  }
  return out;
}

void replay_layers(Report& report, SpanRecorder& spans, const ReplayInputs& in) {
  const auto check = [&report](const std::string& error) {
    if (!error.empty()) report.fail("layer replay: " + error);
  };
  {
    ScopedSpan span(spans, "replay.wire");
    report_wire_layers(report, sample_commands(in.workload, 4096, in.seed), in.mix);
  }
  if (in.queue_depth > 0) {
    ScopedSpan span(spans, "replay.sim");
    const Timed t = replay_sim_events(in.queue_depth, 300'000, in.seed);
    check(t.error);
    report.layer("sim.event_ns", t.ns_per_call, "ns");
  }
  if (in.topology.has_value()) {
    ScopedSpan span(spans, "replay.net");
    const Timed t = replay_net_send(*in.topology, in.node_dcs, in.jitter, 300'000, in.seed);
    check(t.error);
    report.layer("net.send_ns", t.ns_per_call, "ns");
  }
  {
    ScopedSpan span(spans, "replay.measure");
    const EstimatorTimed t = replay_window_estimator(in.window_samples, in.probe_interval,
                                                     in.percentile, 100'000, in.seed);
    check(t.error);
    report.layer("measure.add_ns", t.add_ns, "ns");
    report.layer("measure.percentile_ns", t.percentile_ns, "ns");
  }
  {
    ScopedSpan span(spans, "replay.statemachine");
    const WorkloadTimed t = replay_workload(in.workload, 3, 300'000, in.seed);
    check(t.error);
    report.layer("statemachine.workload_ctor_ms", t.ctor_ms, "ms");
    report.layer("statemachine.next_ns", t.next_ns, "ns");
  }
  if (!in.trace_csv.empty()) {
    ScopedSpan span(spans, "replay.wan");
    const WanTimed t = replay_wan(in.trace_csv, 3, 300'000, in.seed);
    check(t.error);
    report.layer("wan.load_s", t.load_s, "s");
    report.layer("wan.sample_ns", t.sample_ns, "ns");
  }
}

}  // namespace perfbench
