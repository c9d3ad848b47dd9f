// Figure 12: microbenchmark with emulated network-delay changes (the
// paper's private-cluster runs with Linux traffic control). Three replicas
// R, M, N and one client C; every link starts at 30 ms RTT.
//
//   (a) the client<->R delay rises 30 -> 50 ms (t=15 s) -> 70 ms (t=30 s).
//       Mencius (coordinator fixed at R) follows the full increase; the
//       Domino client first keeps DFP (50 < 60) and then switches to DM via
//       another leader (60 < 70).
//   (b) the client<->N delay is 70 ms from the start (DM preferred, same
//       latency as Mencius). At t=15 s the R<->M and R<->N delays rise to
//       60 ms: Mencius (via R) jumps to ~90 ms while Domino switches its DM
//       leader. At t=30 s the M<->N delay also rises to 60 ms: every DM
//       path costs ~90 ms and Domino switches to DFP (~70 ms).
//
// The delay changes are FaultSchedule route changes. The bench checks the
// paper's exact per-phase medians, prints "exact steps hold: yes|NO" and
// exits non-zero on NO; ctest runs it under the `claims` label.
#include <cmath>
#include <cstdio>

#include "common/stats.h"
#include "core/client.h"
#include "core/replica.h"
#include "harness/runner.h"
#include "mencius/client.h"
#include "mencius/replica.h"
#include "net/network.h"
#include "statemachine/workload.h"

namespace {

using namespace domino;

constexpr std::int64_t kRunSeconds = 46;

// Datacenters: 0=R, 1=M, 2=N, 3=C(lient).
net::Topology mesh30() {
  return net::Topology{{"R", "M", "N", "C"},
                       {{0, 30, 30, 30}, {30, 0, 30, 30}, {30, 30, 0, 30},
                        {30, 30, 30, 0}}};
}

// The emulated traffic-control schedule as route changes: each (t, RTT)
// step moves both directions of the a<->b link to base RTT/2 from t on.
// The jitter model stays in place, so only the base delay moves.
void add_rtt_step(net::FaultSchedule& schedule, std::size_t a, std::size_t b, double at_s,
                  double rtt_ms) {
  const TimePoint at = TimePoint::epoch() + seconds_d(at_s);
  schedule.route_change(at, a, b, milliseconds_d(rtt_ms) / 2);
  schedule.route_change(at, b, a, milliseconds_d(rtt_ms) / 2);
}

net::FaultSchedule delay_changes(bool case_b) {
  net::FaultSchedule schedule;
  if (!case_b) {
    add_rtt_step(schedule, 3, 0, 15, 50);
    add_rtt_step(schedule, 3, 0, 30, 70);
  } else {
    add_rtt_step(schedule, 3, 2, 0, 70);
    add_rtt_step(schedule, 0, 1, 15, 60);
    add_rtt_step(schedule, 0, 2, 15, 60);
    add_rtt_step(schedule, 1, 2, 30, 60);
  }
  return schedule;
}

struct Timeline {
  TimeSeries domino{seconds(1)};
  TimeSeries mencius{seconds(1)};
};

Timeline run_case(bool case_b) {
  Timeline timeline;

  // ---------------- Domino ----------------
  {
    sim::Simulator simulator;
    net::Network network(simulator, mesh30(), 3);
    net::JitterParams quiet;
    quiet.spike_prob = 0;
    quiet.jitter_mu_ms = -3.0;
    network.use_default_links(quiet);
    network.install_faults(delay_changes(case_b));
    std::vector<NodeId> rids{NodeId{0}, NodeId{1}, NodeId{2}};
    std::vector<std::unique_ptr<core::Replica>> reps;
    for (std::size_t i = 0; i < 3; ++i) {
      reps.push_back(std::make_unique<core::Replica>(rids[i], i, network, rids, rids[0]));
      reps.back()->attach();
      reps.back()->start();
    }
    core::ClientConfig cc;
    cc.additional_delay = milliseconds(1);
    auto client = std::make_unique<core::Client>(NodeId{1000}, 3, network, rids, cc);
    client->attach();
    client->start();
    client->set_commit_hook([&](const RequestId&, TimePoint sent, TimePoint committed) {
      timeline.domino.add(sent, (committed - sent).millis());
    });
    sm::WorkloadConfig wc;
    sm::WorkloadGenerator gen(wc, 1);
    simulator.schedule_at(TimePoint::epoch() + seconds(1),
                          [&] { client->start_load(gen, 10.0); });
    simulator.run_until(TimePoint::epoch() + seconds(kRunSeconds));
  }

  // ---------------- Mencius ----------------
  {
    sim::Simulator simulator;
    net::Network network(simulator, mesh30(), 3);
    net::JitterParams quiet;
    quiet.spike_prob = 0;
    quiet.jitter_mu_ms = -3.0;
    network.use_default_links(quiet);
    network.install_faults(delay_changes(case_b));
    std::vector<NodeId> rids{NodeId{0}, NodeId{1}, NodeId{2}};
    std::vector<std::unique_ptr<mencius::Replica>> reps;
    for (std::size_t i = 0; i < 3; ++i) {
      reps.push_back(std::make_unique<mencius::Replica>(rids[i], i, network, rids));
      reps.back()->attach();
      reps.back()->start();
    }
    // The paper pre-assigns R as the client's Mencius coordinator.
    auto client = std::make_unique<mencius::Client>(NodeId{1000}, 3, network, rids[0]);
    client->attach();
    client->set_commit_hook([&](const RequestId&, TimePoint sent, TimePoint committed) {
      timeline.mencius.add(sent, (committed - sent).millis());
    });
    sm::WorkloadConfig wc;
    sm::WorkloadGenerator gen(wc, 1);
    simulator.schedule_at(TimePoint::epoch() + seconds(1),
                          [&] { client->start_load(gen, 10.0); });
    simulator.run_until(TimePoint::epoch() + seconds(kRunSeconds));
  }

  return timeline;
}

// Median latency (ms) of the 1 s bucket `s`, or -1 if nothing committed.
double bucket_median(const TimeSeries& series, std::size_t s) {
  return s < series.bucket_count() && !series.bucket(s).empty()
             ? series.bucket(s).percentile(50)
             : -1;
}

void print_timeline(const char* title, const Timeline& t, const char* note) {
  std::printf("\n--- %s ---\n%s\n", title, note);
  std::printf("  t(s)   Domino(ms)  Mencius(ms)\n");
  const std::size_t buckets = std::max(t.domino.bucket_count(), t.mencius.bucket_count());
  for (std::size_t s = 1; s < buckets; s += 2) {
    std::printf("  %4zu   %10.0f  %10.0f\n", s, bucket_median(t.domino, s),
                bucket_median(t.mencius, s));
  }
}

// The paper's step values (ms) in each phase of the run: before t=15 s,
// from 15 s to 30 s, and from 30 s on.
struct Steps {
  long domino[3];
  long mencius[3];
};

// Every printed 2 s row must show exactly its phase's step, rounded to the
// millisecond as printed.
bool steps_hold(const Timeline& t, const Steps& want) {
  for (std::size_t s = 1; s < kRunSeconds; s += 2) {
    const std::size_t phase = s < 15 ? 0 : s < 30 ? 1 : 2;
    if (std::lround(bucket_median(t.domino, s)) != want.domino[phase] ||
        std::lround(bucket_median(t.mencius, s)) != want.mencius[phase]) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace domino;
  std::printf("==========================================================\n");
  std::printf("Adapting to network delay changes (microbenchmark)\n");
  std::printf("(reproduces paper Figure 12 (a, b), Section 7.3)\n");
  std::printf("==========================================================\n");

  const Timeline a = run_case(false);
  print_timeline("Figure 12(a): client<->R delay 30 -> 50 -> 70 ms", a,
                 "paper: Domino 30 -> 50 (stays DFP) -> 60 (switches to DM);\n"
                 "Mencius 30 -> 80 -> 100 (fixed coordinator R)");

  const Timeline b = run_case(true);
  print_timeline("Figure 12(b): inter-replica delays rise", b,
                 "paper: both start ~60; Domino drops below Mencius when R's\n"
                 "links slow (new DM leader), then switches to DFP (~70)");

  const bool hold = steps_hold(a, Steps{{30, 50, 60}, {60, 80, 100}}) &&
                    steps_hold(b, Steps{{60, 60, 70}, {60, 90, 90}});
  std::printf("\nexact steps hold: %s\n", hold ? "yes" : "NO");
  return hold ? 0 : 1;
}
