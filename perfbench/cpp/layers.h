// Per-layer replays: time one layer's public functions on inputs shaped
// like a workload, and check each replay's output against a reference.
//
// Every replay returns the mean wall time per call and an error string that
// is empty when the self-check passed. A failed self-check makes the whole
// benchmark run incorrect.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/latency_model.h"
#include "net/topology.h"
#include "statemachine/command.h"
#include "statemachine/workload.h"
#include "wire/message.h"

namespace perfbench {

struct Timed {
  double ns_per_call = 0.0;
  std::string error;  // empty = self-check passed
};

/// The wire message types whose codec cost the benchmark replays: the most
/// frequent Domino, measurement and Multi-Paxos messages.
const std::vector<domino::wire::MessageType>& codec_types();

struct CodecTimed {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double bytes_per_msg = 0.0;
  std::string error;
};

/// Encode and decode `calls` messages of `type` built around `commands`
/// (cycled); checks that decoding and re-encoding reproduces the bytes.
CodecTimed replay_codec(domino::wire::MessageType type,
                        const std::vector<domino::sm::Command>& commands, std::size_t calls);

class Report;

/// Replay the codec of every codec_types() entry and report
/// wire.encode_ns.<Type> / wire.decode_ns.<Type>, plus wire.encode_ns and
/// wire.decode_ns weighted by `received` (message counts by type name).
void report_wire_layers(Report& report, const std::vector<domino::sm::Command>& commands,
                        const std::map<std::string, double>& received);

/// Simulator::schedule_after + one step() with `depth` events pending; checks
/// that events run in timestamp order and that every one runs.
Timed replay_sim_events(std::size_t depth, std::size_t calls, std::uint64_t seed);

/// Network::send + delivery between nodes placed at `node_dcs` on
/// `topology`, with no-op receivers; checks per-channel FIFO order and that
/// every packet is delivered exactly once.
Timed replay_net_send(const domino::net::Topology& topology,
                      const std::vector<std::size_t>& node_dcs,
                      const domino::net::JitterParams& jitter, std::size_t calls,
                      std::uint64_t seed);

struct EstimatorTimed {
  double add_ns = 0.0;
  double percentile_ns = 0.0;
  std::string error;
};

/// WindowEstimator::add and ::percentile with `window_samples` samples in
/// the window (probe every `interval`); checks every answer against a
/// sorted-vector nearest-rank reference.
EstimatorTimed replay_window_estimator(std::size_t window_samples, domino::Duration interval,
                                       double percentile, std::size_t calls,
                                       std::uint64_t seed);

struct WorkloadTimed {
  double ctor_ms = 0.0;  // median over constructions
  double next_ns = 0.0;
  std::string error;
};

/// WorkloadGenerator construction and next(); checks that equal seeds give
/// equal command streams and that keys and values have the configured width.
WorkloadTimed replay_workload(const domino::sm::WorkloadConfig& config, std::size_t ctors,
                              std::size_t calls, std::uint64_t seed);

struct WanTimed {
  double load_s = 0.0;  // median over loads
  double sample_ns = 0.0;
  std::string error;
};

/// wan::DelayTrace::load of `csv_path` and EmpiricalLatency::sample on its
/// first link; checks that every sample lies within the link's recorded
/// delay range.
WanTimed replay_wan(const std::string& csv_path, std::size_t loads, std::size_t calls,
                    std::uint64_t seed);

/// Commands shaped like a workload's requests (its key space and sizes).
std::vector<domino::sm::Command> sample_commands(const domino::sm::WorkloadConfig& config,
                                                 std::size_t n, std::uint64_t seed);

/// A workload's shape, as the layer replays need it. A layer the workload
/// does not exercise is left out (its metrics stay 0).
struct ReplayInputs {
  std::uint64_t seed = 1;
  domino::sm::WorkloadConfig workload;
  /// Received messages by type name, weighting the wire.* means.
  std::map<std::string, double> mix;
  /// Probes per estimator window (window / probe interval).
  std::size_t window_samples = 100;
  domino::Duration probe_interval = domino::milliseconds(10);
  double percentile = 95.0;
  /// sim: replayed at this queue depth; 0 = the workload has no simulator.
  std::size_t queue_depth = 0;
  /// net: Network::send between nodes at `node_dcs` on `topology`; no
  /// topology = the workload has no simulated network.
  std::optional<domino::net::Topology> topology;
  std::vector<std::size_t> node_dcs;
  domino::net::JitterParams jitter;
  /// wan: the delay trace the workload replays; empty = none.
  std::string trace_csv;
};

class SpanRecorder;

/// Run every replay `inputs` asks for, one "replay.<layer>" span each, and
/// report its per-call metrics; a failed self-check fails the report.
void replay_layers(Report& report, SpanRecorder& spans, const ReplayInputs& inputs);

}  // namespace perfbench
