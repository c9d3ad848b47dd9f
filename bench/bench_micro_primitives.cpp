// Google-benchmark microbenchmarks for the substrate hot paths: the wire
// codec, the compressed logs, the sliding-window estimator, the latency
// sample store, the flat key table, the durable write-ahead log and the
// discrete-event core.
// These bound the simulator's capacity for the Figure 13 throughput sweeps. The delay-trace loader, run
// over the globe_va.csv fixture, is the set-up cost of every trace-replay
// run.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/interval_set.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/window_estimator.h"
#include "core/messages.h"
#include "log/global_log.h"
#include "log/index_log.h"
#include "net/network.h"
#include "recovery/durable.h"
#include "recovery/messages.h"
#include "rpc/node.h"
#include "sim/simulator.h"
#include "statemachine/workload.h"
#include "wan/delay_trace.h"
#include "wire/message.h"

namespace {

using namespace domino;

sm::Command make_cmd(std::uint64_t seq) {
  sm::Command c;
  c.id = RequestId{NodeId{1000}, seq};
  c.key = "k1234567";
  c.value = "v7654321";
  return c;
}

void BM_EncodeDfpPropose(benchmark::State& state) {
  const core::DfpPropose msg{123456789, make_cmd(42)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode_message(msg));
  }
}
BENCHMARK(BM_EncodeDfpPropose);

void BM_DecodeDfpPropose(benchmark::State& state) {
  const wire::Payload payload = wire::encode_message(core::DfpPropose{123456789, make_cmd(42)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_message<core::DfpPropose>(payload));
  }
}
BENCHMARK(BM_DecodeDfpPropose);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_after(microseconds(i % 97), [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_IndexLogAppendCommitExecute(benchmark::State& state) {
  for (auto _ : state) {
    log::IndexLog log;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      log.accept(i, make_cmd(i));
      log.commit(i);
    }
    benchmark::DoNotOptimize(log.drain_executable());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IndexLogAppendCommitExecute);

void BM_GlobalLogDfpFlow(benchmark::State& state) {
  for (auto _ : state) {
    log::GlobalLog log(4);
    std::int64_t ts = 1000;
    for (int i = 0; i < 1000; ++i) {
      ts += 1000;
      log.commit(log::LogPosition{ts, 3}, make_cmd(static_cast<std::uint64_t>(i)));
    }
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      log.advance_watermark(lane, ts + 1000);
    }
    benchmark::DoNotOptimize(log.drain_executable());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_GlobalLogDfpFlow);

void BM_IntervalSetInsertContains(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet set;
    for (std::int64_t i = 0; i < 1000; ++i) {
      set.insert(i * 3, i * 3 + 1);  // leaves holes -> no full coalesce
    }
    bool any = false;
    for (std::int64_t i = 0; i < 3000; i += 7) any ^= set.contains(i);
    benchmark::DoNotOptimize(any);
  }
}
BENCHMARK(BM_IntervalSetInsertContains);

void BM_WindowEstimatorP95(benchmark::State& state) {
  WindowEstimator w(seconds(1));
  TimePoint t = TimePoint::epoch();
  for (int i = 0; i < 100; ++i) {
    t += milliseconds(10);
    w.add(t, milliseconds(30 + i % 5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.percentile(t, 95));
  }
}
BENCHMARK(BM_WindowEstimatorP95);

// One cluster_load run's execution samples (Fig. 13 at 34K req/s: 51,000
// tracked requests executed at three replicas), then the two percentiles
// perfbench reads. With frozen:1 the set is frozen first, as run_protocol
// leaves every result's samples, so the queries decode deltas.
void BM_StatAccumulatorAddPercentile(benchmark::State& state) {
  constexpr int kSamples = 153'000;
  const bool frozen = state.range(0) != 0;
  Rng rng(1);
  std::vector<Duration> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    samples.push_back(rng.uniform_duration(microseconds(200), milliseconds(3)));
  }
  for (auto _ : state) {
    StatAccumulator acc;
    for (const Duration d : samples) acc.add(d);
    if (frozen) acc.freeze();
    benchmark::DoNotOptimize(acc.percentile(50));
    benchmark::DoNotOptimize(acc.percentile(99.9));
  }
  state.SetItemsProcessed(state.iterations() * kSamples);
}
BENCHMARK(BM_StatAccumulatorAddPercentile)
    ->ArgName("frozen")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The key table of one cluster_load run: the 51,650 distinct keys the
// paper's workload (8-digit keys, Zipf over 1 M) writes, inserted into an
// empty table as the KV store does, then each found again.
void BM_FlatStringMapWorkloadKeys(benchmark::State& state) {
  constexpr std::size_t kKeys = 51'650;
  sm::WorkloadGenerator workload({}, 1);
  std::unordered_set<std::string> seen;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  while (keys.size() < kKeys) {
    std::string key = workload.next(NodeId{1}).key;
    if (seen.insert(key).second) keys.push_back(std::move(key));
  }
  for (auto _ : state) {
    FlatStringMap<InlineString> table;
    for (const std::string& key : keys) table.try_emplace(key).first->assign(key);
    for (const std::string& key : keys) benchmark::DoNotOptimize(table.find(key));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_FlatStringMapWorkloadKeys)->Unit(benchmark::kMillisecond);

/// A bare node for Persistor::bind, which needs only its id.
class DurableHost : public rpc::Node {
 public:
  using Node::Node;

 protected:
  void on_packet(const net::Packet&) override {}
};

// The faults_trace workload's Domino run (2 ms syncs, amnesiac restarts)
// persists 100,408 records of 31 B on average. Each is an
// IndexAcceptedRecord (about 29 B) persisted through a bound Persistor with
// zero sync latency, so the continuation runs inline; replay decodes every
// record back into the struct.
void BM_DurableLogAppendReplay(benchmark::State& state) {
  constexpr std::uint64_t kRecords = 100'408;
  sim::Simulator simulator;
  net::Network network{simulator, net::Topology{{"A"}, {{0.0}}}, 1};
  DurableHost host{NodeId{0}, 0, network};
  for (auto _ : state) {
    recovery::DurableStore store;
    recovery::Persistor persistor;
    persistor.bind(store, host);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      persistor.persist(recovery::RecordTag::kAccepted,
                        recovery::IndexAcceptedRecord{i, make_cmd(i), std::nullopt});
    }
    std::uint64_t sum = 0;
    const auto add = [&sum](const recovery::IndexAcceptedRecord& rec) { sum += rec.index; };
    persistor.replay<recovery::IndexAcceptedRecord, recovery::IndexAcceptedRecord>(add, add);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_DurableLogAppendReplay)->Unit(benchmark::kMillisecond);

const std::string kTraceFixture = std::string(DOMINO_TRACE_DIR) + "/globe_va.csv";

void BM_DelayTraceParseCsv(benchmark::State& state) {
  std::ifstream in(kTraceFixture, std::ios::binary);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wan::DelayTrace::parse_csv(text));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_DelayTraceParseCsv)->Unit(benchmark::kMillisecond);

void BM_DelayTraceLoad(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(wan::DelayTrace::load(kTraceFixture));
  }
  const auto bytes = static_cast<std::int64_t>(std::filesystem::file_size(kTraceFixture));
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_DelayTraceLoad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
