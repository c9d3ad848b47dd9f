#include "harness/runner.h"

#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common/rng.h"
#include "core/replica.h"
#include "epaxos/client.h"
#include "epaxos/replica.h"
#include "fastpaxos/client.h"
#include "fastpaxos/replica.h"
#include "harness/collector.h"
#include "mencius/client.h"
#include "mencius/replica.h"
#include "net/network.h"
#include "obs/sink.h"
#include "paxos/client.h"
#include "paxos/replica.h"
#include "sim/simulator.h"
#include "wan/empirical.h"

namespace domino::harness {

std::string protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kMultiPaxos: return "Multi-Paxos";
    case Protocol::kMencius: return "Mencius";
    case Protocol::kEPaxos: return "EPaxos";
    case Protocol::kFastPaxos: return "Fast Paxos";
    case Protocol::kDomino: return "Domino";
  }
  return "?";
}

double RunResult::throughput_rps() const {
  if (measure_window <= Duration::zero()) return 0.0;
  return static_cast<double>(committed) / measure_window.seconds();
}

namespace {

NodeId replica_id(std::size_t i) { return NodeId{static_cast<std::uint32_t>(i)}; }
NodeId client_id(std::size_t i) { return NodeId{static_cast<std::uint32_t>(1000 + i)}; }

struct Env {
  explicit Env(const Scenario& s)
      : scenario(s),
        network(simulator, s.topology, s.seed),
        clock_rng(s.seed ^ 0x5DEECE66Dull),
        window_start(TimePoint::epoch() + s.warmup),
        window_end(window_start + s.measure),
        collector(window_start, window_end, s.client_dcs.size()),
        durable(recovery::DurableConfig{s.sync_latency}) {
    if (s.replica_dcs.empty()) throw std::invalid_argument("Scenario: no replicas");
    if (s.leader_index >= s.replica_dcs.size()) {
      throw std::invalid_argument("Scenario: bad leader index");
    }
    network.use_default_links(s.jitter);
    if (s.wan_trace != nullptr) {
      wan::apply_trace(*s.wan_trace, network, wan::EmpiricalConfig{});
    } else if (!s.trace_dir.empty()) {
      const wan::DelayTrace loaded = wan::DelayTrace::load(s.trace_dir);
      wan::apply_trace(loaded, network, wan::EmpiricalConfig{});
    }
    if (!s.faults.empty()) network.install_faults(s.faults);
    if (s.observability) {
      metrics = std::make_shared<obs::MetricsRegistry>();
      trace = std::make_shared<obs::TraceRecorder>();
      if (s.command_spans) {
        spans = std::make_shared<obs::SpanStore>();
      }
      if (s.prediction_audit) {
        predict = std::make_shared<obs::PredictionAudit>();
        predict->bind_metrics(metrics.get());
      }
      const obs::Sink sink{metrics.get(), trace.get(), spans.get(), predict.get()};
      simulator.bind_obs(sink);
      network.bind_obs(sink);  // nodes pick the sink up at construction
      durable.bind_obs(sink);
      if (s.timeseries_interval > Duration::zero()) {
        timeseries = std::make_shared<obs::Timeseries>();
      }
    }
    if (s.amnesia_crashes) {
      // Dispatch every scheduled recover through the restart table: the
      // recover hook (FIFO channel reset) has already run when this fires.
      network.set_restart_hook([this](NodeId node) {
        const auto it = restarters.find(node);
        if (it != restarters.end()) it->second->restart();
      });
    }
  }

  /// Durability is on whenever anything needs the store: amnesiac crashes
  /// or a non-zero sync latency.
  [[nodiscard]] bool durability() const {
    return scenario.amnesia_crashes || scenario.sync_latency > Duration::zero();
  }

  /// Bind `replica` to the durable store and register it for amnesiac
  /// restarts. Call before moving the owning unique_ptr into the vector is
  /// fine — the pointee address is stable.
  void enable_recovery(recovery::Replica& replica, NodeId id) {
    if (!durability()) return;
    replica.enable_durability(durable);
    if (scenario.amnesia_crashes) restarters[id] = &replica;
  }

  sim::LocalClock next_clock() {
    const double stddev = static_cast<double>(scenario.clock_offset_stddev.nanos());
    return sim::LocalClock{Duration{static_cast<std::int64_t>(clock_rng.normal(0, stddev))},
                           /*drift_ppm=*/clock_rng.normal(0, 5.0)};
  }

  /// Configure capacity modelling on a node if the scenario asks for it.
  void apply_capacity(NodeId id, bool is_replica) {
    if (is_replica && scenario.replica_service_time > Duration::zero()) {
      network.set_receive_service_time(id, scenario.replica_service_time);
    }
    if (scenario.node_egress_bps > 0.0) {
      network.set_egress_bandwidth_bps(id, scenario.node_egress_bps);
    }
  }

  /// Start load on the clients, run the full schedule, fill common results.
  template <typename ClientT>
  void drive(std::vector<std::unique_ptr<ClientT>>& clients, RunResult& result) {
    workloads.reserve(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      workloads.push_back(std::make_unique<sm::WorkloadGenerator>(
          scenario.workload, scenario.seed * 7919 + i));
      ClientT* client = clients[i].get();
      if (scenario.client_request_timeout > Duration::zero()) {
        client->set_request_timeout(scenario.client_request_timeout,
                                    scenario.client_max_retries);
      }
      client->set_send_hook([this, i](const RequestId& id, TimePoint at) {
        collector.on_send(i, id, at);
      });
      client->set_commit_hook(
          [this, i](const RequestId& id, TimePoint sent, TimePoint committed) {
            collector.on_commit(i, id, sent, committed);
          });
      // Stagger client start to avoid synchronized request bursts.
      const Duration stagger = milliseconds(1) * static_cast<std::int64_t>(i);
      simulator.schedule_after(stagger, [this, client, i] {
        client->start_load(*workloads[i], scenario.rps);
      });
      simulator.schedule_at(window_end, [client] { client->stop_load(); });
    }
    if (timeseries != nullptr) {
      // Read-only sampler on the virtual-time queue: snapshots metric
      // deltas every interval, so enabling it cannot perturb the protocols.
      sampler.start(network, scenario.timeseries_interval, scenario.timeseries_interval,
                    [this] { timeseries->sample(*metrics, simulator.now()); });
    }
    simulator.run_until(window_end + scenario.cooldown);
    if (timeseries != nullptr) {
      sampler.stop();
      // Flush the tail: whatever accumulated since the last periodic tick
      // becomes the final (possibly short) window.
      timeseries->sample(*metrics, simulator.now());
    }

    result.commit_ms = collector.commit_ms();
    result.exec_ms = collector.exec_ms();
    result.commit_per_client.reserve(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      result.commit_per_client.push_back(collector.commit_ms_of(i));
    }
    for (const auto& c : clients) {
      result.submitted += c->submitted_count();
      result.client_committed += c->committed_count();
      result.client_retries += c->retry_count();
      result.client_abandoned += c->abandoned_count();
      result.client_inflight_end += c->inflight_count();
    }
    result.committed = collector.committed_count();
    result.packets_sent = network.packets_sent();
    result.bytes_sent = network.bytes_sent();
    result.packets_dropped = network.packets_dropped();
    result.drops_crashed_source = network.packets_dropped(net::DropReason::kCrashedSource);
    result.drops_crashed_dest = network.packets_dropped(net::DropReason::kCrashedDest);
    result.drops_partition = network.packets_dropped(net::DropReason::kPartition);
    result.fault_digest = network.fault().digest();
    result.fault_transitions = network.fault().transitions();
    result.recovery = durable.aggregate();
    result.recovery_downtime_ns = network.fault().total_downtime().nanos();
    result.measure_window = scenario.measure;
    result.latency = collector.summarize();
    result.metrics = metrics;
    result.trace = trace;
    result.spans = spans;
    result.predict = predict;
    if (spans != nullptr) {
      if (metrics != nullptr) {
        metrics->counter("obs.span.dropped_spans").inc(spans->dropped_spans());
        metrics->counter("obs.span.dropped_edges").inc(spans->dropped_edges());
      }
      result.critical_paths = obs::critical_paths(*spans);
      if (metrics != nullptr) obs::accumulate_phases(result.critical_paths, *metrics);
    }
    result.timeseries = timeseries;
    if (timeseries != nullptr) {
      if (metrics != nullptr && timeseries->dropped_windows() > 0) {
        metrics->counter("obs.timeseries.dropped_windows")
            .inc(timeseries->dropped_windows());
      }
      obs::SloConfig cfg = scenario.slo;
      if (cfg.evaluate_until == TimePoint::max()) cfg.evaluate_until = window_end;
      result.slo = obs::evaluate_slo(*timeseries, cfg, fault_instants());
      if (metrics != nullptr) obs::publish_slo_metrics(result.slo, *metrics);
    }
  }

  /// Convert the scenario's fault schedule into the steady-state detector's
  /// layering-neutral instants (obs cannot see net/fault.h).
  [[nodiscard]] std::vector<obs::FaultInstant> fault_instants() const {
    std::vector<obs::FaultInstant> out;
    out.reserve(scenario.faults.size());
    for (const net::FaultEvent& e : scenario.faults.events()) {
      const char* kind = "?";
      switch (e.kind) {
        case net::FaultEvent::Kind::kCrash: kind = "crash"; break;
        case net::FaultEvent::Kind::kRecover: kind = "recover"; break;
        case net::FaultEvent::Kind::kPartition: kind = "partition"; break;
        case net::FaultEvent::Kind::kHeal: kind = "heal"; break;
        case net::FaultEvent::Kind::kDegradeStart: kind = "degrade_start"; break;
        case net::FaultEvent::Kind::kDegradeEnd: kind = "degrade_end"; break;
        case net::FaultEvent::Kind::kRouteChange: kind = "route_change"; break;
      }
      out.push_back(obs::FaultInstant{e.at, kind, e.node});
    }
    return out;
  }

  const Scenario& scenario;
  // Declared before the simulator/network/nodes so every obs handle stays
  // valid for the users' whole lifetime (members destroy in reverse order).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TraceRecorder> trace;
  std::shared_ptr<obs::SpanStore> spans;
  std::shared_ptr<obs::PredictionAudit> predict;
  std::shared_ptr<obs::Timeseries> timeseries;
  sim::Simulator simulator;
  net::Network network;
  rpc::RepeatingTimer sampler;
  Rng clock_rng;
  TimePoint window_start;
  TimePoint window_end;
  LatencyCollector collector;
  std::vector<std::unique_ptr<sm::WorkloadGenerator>> workloads;
  recovery::DurableStore durable;  // outlives replicas (run_cluster locals)
  std::unordered_map<NodeId, recovery::Replica*> restarters;
};

/// One protocol's deployment: factories for replica i and client i (each
/// handed the node's freshly drawn local clock), and the protocol-specific
/// counters it adds to the result once the run is over.
template <typename ReplicaT, typename ClientT>
struct Deployment {
  using Replicas = std::vector<std::unique_ptr<ReplicaT>>;
  using Clients = std::vector<std::unique_ptr<ClientT>>;

  std::function<std::unique_ptr<ReplicaT>(std::size_t, sim::LocalClock)> replica;
  std::function<std::unique_ptr<ClientT>(std::size_t, sim::LocalClock)> client;
  std::function<void(const Replicas&, const Clients&, RunResult&)> extras = {};
};

/// Build every replica, then every client (one clock draw per node in that
/// order), run the scenario, and collect the results.
template <typename ReplicaT, typename ClientT>
RunResult run_cluster(Env& env, const Deployment<ReplicaT, ClientT>& deployment) {
  const Scenario& s = env.scenario;
  RunResult result;

  typename Deployment<ReplicaT, ClientT>::Replicas replicas;
  for (std::size_t i = 0; i < s.replica_dcs.size(); ++i) {
    auto r = deployment.replica(i, env.next_clock());
    r->attach();
    env.enable_recovery(*r, replica_id(i));
    r->start();  // Mencius: heartbeats; Domino: probing, heartbeats
    env.apply_capacity(replica_id(i), true);
    r->set_execute_hook([&env](const RequestId& id, TimePoint at) {
      env.collector.on_execute(id, at);
    });
    replicas.push_back(std::move(r));
  }

  typename Deployment<ReplicaT, ClientT>::Clients clients;
  for (std::size_t i = 0; i < s.client_dcs.size(); ++i) {
    auto c = deployment.client(i, env.next_clock());
    c->attach();
    c->start();  // Domino: probing
    env.apply_capacity(client_id(i), false);
    clients.push_back(std::move(c));
  }

  env.drive(clients, result);
  // Each replica's state-machine fingerprint (chaos convergence checks
  // compare these across the live majority).
  for (const auto& r : replicas) {
    result.replica_store_fingerprints.push_back(r->store().fingerprint());
    result.replica_applied_counts.push_back(r->store().applied_count());
    result.replica_retained_entries.push_back(r->retained_entries());
  }
  if (deployment.extras) deployment.extras(replicas, clients, result);
  return result;
}

}  // namespace

RunResult run_protocol(Protocol protocol, const Scenario& s) {
  Env env(s);
  std::vector<NodeId> rids;
  for (std::size_t i = 0; i < s.replica_dcs.size(); ++i) rids.push_back(replica_id(i));
  const NodeId leader = rids[s.leader_index];
  net::Network& net = env.network;
  const auto closest = [&](std::size_t client) {
    return rids[closest_replica(s.topology, s.replica_dcs, s.client_dcs[client])];
  };

  switch (protocol) {
    case Protocol::kMultiPaxos:
      return run_cluster(env, Deployment<paxos::Replica, paxos::Client>{
          .replica = [&](std::size_t i, sim::LocalClock clock) {
            return std::make_unique<paxos::Replica>(rids[i], s.replica_dcs[i], net, rids,
                                                    leader, clock);
          },
          .client = [&](std::size_t i, sim::LocalClock clock) {
            return std::make_unique<paxos::Client>(client_id(i), s.client_dcs[i], net,
                                                   leader, clock);
          }});

    case Protocol::kMencius:
      return run_cluster(env, Deployment<mencius::Replica, mencius::Client>{
          .replica = [&](std::size_t i, sim::LocalClock clock) {
            return std::make_unique<mencius::Replica>(rids[i], s.replica_dcs[i], net, rids,
                                                      clock);
          },
          .client = [&](std::size_t i, sim::LocalClock clock) {
            return std::make_unique<mencius::Client>(client_id(i), s.client_dcs[i], net,
                                                     closest(i), clock);
          }});

    case Protocol::kEPaxos:
      return run_cluster(env, Deployment<epaxos::Replica, epaxos::Client>{
          .replica = [&](std::size_t i, sim::LocalClock clock) {
            return std::make_unique<epaxos::Replica>(rids[i], s.replica_dcs[i], net, rids,
                                                     clock);
          },
          .client = [&](std::size_t i, sim::LocalClock clock) {
            return std::make_unique<epaxos::Client>(client_id(i), s.client_dcs[i], net,
                                                    closest(i), clock);
          },
          .extras = [](const auto& replicas, const auto&, RunResult& result) {
            for (const auto& r : replicas) {
              result.fast_path += r->fast_path_commits();
              result.slow_path += r->slow_path_commits();
            }
          }});

    case Protocol::kFastPaxos:
      return run_cluster(env, Deployment<fastpaxos::Replica, fastpaxos::Client>{
          .replica = [&](std::size_t i, sim::LocalClock clock) {
            return std::make_unique<fastpaxos::Replica>(rids[i], s.replica_dcs[i], net, rids,
                                                        leader, clock);
          },
          .client = [&](std::size_t i, sim::LocalClock clock) {
            return std::make_unique<fastpaxos::Client>(client_id(i), s.client_dcs[i], net,
                                                       rids, clock);
          },
          .extras = [](const auto& replicas, const auto&, RunResult& result) {
            for (const auto& r : replicas) {
              result.fast_path += r->fast_commits();
              result.slow_path += r->slow_commits();
            }
          }});

    case Protocol::kDomino:
      return run_cluster(env, Deployment<core::Replica, core::Client>{
          .replica = [&](std::size_t i, sim::LocalClock clock) {
            core::ReplicaConfig rc;
            rc.prober.percentile = s.measurement_percentile;
            rc.prober.probe_interval = s.probe_interval;
            rc.prober.window = s.measurement_window;
            rc.all_replicas_learn = s.domino_all_learners;
            return std::make_unique<core::Replica>(rids[i], s.replica_dcs[i], net, rids,
                                                   leader, rc, clock);
          },
          .client = [&](std::size_t i, sim::LocalClock clock) {
            core::ClientConfig cc;
            cc.prober.percentile = s.measurement_percentile;
            cc.prober.probe_interval = s.probe_interval;
            cc.prober.window = s.measurement_window;
            cc.additional_delay = s.additional_delay;
            cc.mode = s.domino_mode;
            cc.adaptive = s.domino_adaptive;
            return std::make_unique<core::Client>(client_id(i), s.client_dcs[i], net, rids,
                                                  cc, clock);
          },
          .extras = [&s](const auto& replicas, const auto& clients, RunResult& result) {
            for (const auto& r : replicas) {
              result.fast_path += r->dfp_fast_commits();
              result.slow_path += r->dfp_slow_commits();
            }
            for (const auto& c : clients) {
              result.dfp_chosen += c->dfp_chosen();
              result.dm_chosen += c->dm_chosen();
            }
            if (!s.prediction_audit || !s.observability) return;
            // Estimator calibration: every prober's predicted-vs-realized
            // score card, replicas first then clients, in construction order
            // (each prober's targets are already in registered order).
            const auto append = [&result](const measure::Prober& prober) {
              const auto rows = obs::calibration_rows(prober.calibration());
              result.calibration.insert(result.calibration.end(), rows.begin(), rows.end());
            };
            for (const auto& r : replicas) append(r->prober());
            for (const auto& c : clients) append(c->prober());
          }});
  }
  throw std::logic_error("run_protocol: unknown protocol");
}

}  // namespace domino::harness
