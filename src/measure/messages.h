// Measurement-plane messages.
//
// Clients and replicas periodically probe every replica (paper Section 5.6,
// default interval 10 ms). The reply carries the replica's local timestamp
// (for the one-way-delay technique of Section 5.4) and piggybacks the
// replica's current replication-latency estimate L_r (used by clients to
// estimate DM commit latency).
#pragma once

#include "common/ids.h"
#include "common/time.h"
#include "wire/message.h"

namespace domino::measure {

struct Probe {
  static constexpr wire::MessageType kType = wire::MessageType::kProbe;

  std::uint64_t seq = 0;
  TimePoint sender_local_time;  // the prober's clock when it sent this

  static auto fields(auto& m) { return std::tie(m.seq, m.sender_local_time); }
};

struct ProbeReply {
  static constexpr wire::MessageType kType = wire::MessageType::kProbeReply;

  std::uint64_t seq = 0;
  TimePoint echo_sender_local_time;  // copied from the probe
  TimePoint replica_local_time;      // replica's clock on receipt
  Duration replication_latency;      // the replica's L_r estimate (Section 5.6)

  static auto fields(auto& m) {
    return std::tie(m.seq, m.echo_sender_local_time, m.replica_local_time,
                    m.replication_latency);
  }
};

}  // namespace domino::measure
