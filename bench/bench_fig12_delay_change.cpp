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

// Datacenters: 0=R, 1=M, 2=N, 3=C(lient).
net::Topology mesh30() {
  return net::Topology{{"R", "M", "N", "C"},
                       {{0, 30, 30, 30}, {30, 0, 30, 30}, {30, 30, 0, 30},
                        {30, 30, 30, 0}}};
}

void set_scheduled(net::Network& network, std::size_t a, std::size_t b,
                   std::vector<std::pair<double, double>> steps_s_rtt) {
  std::vector<net::RttStep> steps;
  for (auto [at_s, rtt_ms] : steps_s_rtt) {
    steps.push_back({seconds_d(at_s), milliseconds_d(rtt_ms)});
  }
  net::JitterParams quiet;
  quiet.spike_prob = 0;
  quiet.jitter_mu_ms = -3.0;
  network.set_scheduled_rtt_link(a, b, steps, quiet);
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
    if (!case_b) {
      set_scheduled(network, 3, 0, {{0, 30}, {15, 50}, {30, 70}});
    } else {
      set_scheduled(network, 3, 2, {{0, 70}});
      set_scheduled(network, 0, 1, {{0, 30}, {15, 60}});
      set_scheduled(network, 0, 2, {{0, 30}, {15, 60}});
      set_scheduled(network, 1, 2, {{0, 30}, {30, 60}});
    }
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
    simulator.run_until(TimePoint::epoch() + seconds(46));
  }

  // ---------------- Mencius ----------------
  {
    sim::Simulator simulator;
    net::Network network(simulator, mesh30(), 3);
    net::JitterParams quiet;
    quiet.spike_prob = 0;
    quiet.jitter_mu_ms = -3.0;
    network.use_default_links(quiet);
    if (!case_b) {
      set_scheduled(network, 3, 0, {{0, 30}, {15, 50}, {30, 70}});
    } else {
      set_scheduled(network, 3, 2, {{0, 70}});
      set_scheduled(network, 0, 1, {{0, 30}, {15, 60}});
      set_scheduled(network, 0, 2, {{0, 30}, {15, 60}});
      set_scheduled(network, 1, 2, {{0, 30}, {30, 60}});
    }
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
    simulator.run_until(TimePoint::epoch() + seconds(46));
  }

  return timeline;
}

void print_timeline(const char* title, const Timeline& t, const char* note) {
  std::printf("\n--- %s ---\n%s\n", title, note);
  std::printf("  t(s)   Domino(ms)  Mencius(ms)\n");
  const std::size_t buckets = std::max(t.domino.bucket_count(), t.mencius.bucket_count());
  for (std::size_t s = 1; s < buckets; s += 2) {
    const double dom = s < t.domino.bucket_count() && !t.domino.bucket(s).empty()
                           ? t.domino.bucket(s).percentile(50)
                           : -1;
    const double men = s < t.mencius.bucket_count() && !t.mencius.bucket(s).empty()
                           ? t.mencius.bucket(s).percentile(50)
                           : -1;
    std::printf("  %4zu   %10.0f  %10.0f\n", s, dom, men);
  }
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
  return 0;
}
