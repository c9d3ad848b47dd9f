#include "net/network.h"

#include <stdexcept>
#include <utility>

namespace domino::net {

Network::Network(sim::Simulator& simulator, Topology topology, std::uint64_t seed)
    : sim_(simulator),
      topology_(std::move(topology)),
      rng_(seed),
      fault_(simulator, topology_.size(), seed) {
  fault_.set_recover_hook([this](NodeId id) { reset_channels_of(id); });
  const std::size_t n = topology_.size();
  links_.resize(n);
  link_rngs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    links_[i].resize(n);
    std::vector<Rng> row;
    row.reserve(n);
    for (std::size_t j = 0; j < n; ++j) row.push_back(rng_.fork());
    link_rngs_.push_back(std::move(row));
  }
  // Default every link (including intra-DC) to its constant base OWD; callers
  // typically replace inter-DC links via use_default_links().
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      links_[i][j] = std::make_unique<ConstantLatency>(topology_.owd(i, j));
    }
  }
}

void Network::use_default_links(const JitterParams& params) {
  const std::size_t n = topology_.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;  // keep intra-DC constant
      links_[i][j] = std::make_unique<JitterLatency>(topology_.owd(i, j), params);
    }
  }
}

void Network::set_link_model(std::size_t from_dc, std::size_t to_dc,
                             std::unique_ptr<LatencyModel> model) {
  if (from_dc >= topology_.size() || to_dc >= topology_.size()) {
    throw std::out_of_range("Network::set_link_model: bad datacenter index");
  }
  links_[from_dc][to_dc] = std::move(model);
}

LatencyModel& Network::link_model(std::size_t from_dc, std::size_t to_dc) {
  if (from_dc >= topology_.size() || to_dc >= topology_.size()) {
    throw std::out_of_range("Network::link_model: bad datacenter index");
  }
  return *links_[from_dc][to_dc];
}

void Network::bind_obs(const obs::Sink& sink) {
  obs_ = sink;
  fault_.bind_obs(sink);
  obs_dropped_ = sink.counter("net.packets_dropped");
  const std::size_t n = topology_.size();
  link_obs_.assign(n, std::vector<LinkObs>(n));
  if (sink.metrics == nullptr) return;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::string link = "net.link." + topology_.name(i) + "->" + topology_.name(j);
      link_obs_[i][j].messages = sink.counter(link + ".messages");
      link_obs_[i][j].bytes = sink.counter(link + ".bytes");
      link_obs_[i][j].delay_ns = sink.histogram(link + ".delay_ns");
    }
  }
}

void Network::count_drop(DropReason reason, NodeId src, NodeId dst) {
  obs_dropped_.inc();
  // The injector owns the per-reason counters and the fault/drop digest.
  fault_.count_drop(reason, sim_.now(), src, dst);
}

void Network::reset_channels_of(NodeId id) {
  for (auto it = channel_last_delivery_.begin(); it != channel_last_delivery_.end();) {
    if (it->first.src == id || it->first.dst == id) {
      it = channel_last_delivery_.erase(it);
    } else {
      ++it;
    }
  }
}

void Network::register_node(NodeId id, std::size_t dc, Receiver receiver) {
  if (dc >= topology_.size()) throw std::out_of_range("Network::register_node: bad dc");
  if (nodes_.contains(id)) throw std::invalid_argument("Network: duplicate node id");
  NodeInfo ni;
  ni.dc = dc;
  ni.receiver = std::move(receiver);
  nodes_.emplace(id, std::move(ni));
}

Network::NodeInfo& Network::info(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Network: unknown node " + id.to_string());
  return it->second;
}

const Network::NodeInfo& Network::info(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Network: unknown node " + id.to_string());
  return it->second;
}

std::size_t Network::dc_of(NodeId id) const { return info(id).dc; }

void Network::set_receive_service_time(NodeId id, Duration per_message) {
  info(id).rx_service = per_message;
}

void Network::set_egress_bandwidth_bps(NodeId id, double bits_per_second) {
  info(id).egress_bps = bits_per_second;
}

void Network::send(NodeId src, NodeId dst, wire::Payload payload) {
  NodeInfo& s = info(src);
  NodeInfo& d = info(dst);
  const std::size_t bytes = payload.size() + kFrameOverheadBytes;
  // Single drop decision point: crashes and partitions, with the reason.
  if (const DropReason reason = fault_.drop_reason(src, s.dc, dst, d.dc);
      reason != DropReason::kNone) {
    count_drop(reason, src, dst);
    return;
  }

  const TimePoint now = sim_.now();
  ++packets_sent_;
  bytes_sent_ += bytes;

  // Egress serialization: the sender's NIC transmits packets back to back.
  TimePoint tx_done = now;
  if (s.egress_bps > 0.0) {
    const Duration serialize{static_cast<std::int64_t>(
        static_cast<double>(bytes) * 8.0 / s.egress_bps * 1e9)};
    const TimePoint start = std::max(now, s.tx_busy_until);
    tx_done = start + serialize;
    s.tx_busy_until = tx_done;
  }

  // Sample the link model, then let the fault layer deform the delay
  // (route-change base shift, degradation multiplier + extra spikes).
  const Duration owd =
      fault_.deform(s.dc, d.dc, links_[s.dc][d.dc]->sample(now, link_rngs_[s.dc][d.dc]),
                    links_[s.dc][d.dc]->base(now));
  TimePoint arrival = tx_done + owd;

  // FIFO channel: never deliver before (or at the same instant as) an
  // earlier packet on this (src, dst) channel.
  TimePoint& last = channel_last_delivery_[ChannelKey{src, dst}];
  if (arrival <= last) arrival = last + nanoseconds(1);
  last = arrival;

  // Receive-side CPU: messages are processed serially at rx_service each.
  TimePoint deliver_at = arrival;
  if (d.rx_service > Duration::zero()) {
    const TimePoint start = std::max(arrival, d.rx_busy_until);
    deliver_at = start + d.rx_service;
    d.rx_busy_until = deliver_at;
  }

  if (obs_.active()) {
    if (!link_obs_.empty()) {
      LinkObs& lo = link_obs_[s.dc][d.dc];
      lo.messages.inc();
      lo.bytes.inc(bytes);
      lo.delay_ns.record(deliver_at - now);
    }
  }

  sim_.schedule_at(deliver_at,
                   [this, pkt = Packet{src, dst, now, std::move(payload)}, dst,
                    src_dc = s.dc, dst_dc = d.dc]() mutable {
                     // Re-check at delivery: a crash or partition that began
                     // while the packet was in flight still loses it.
                     if (const DropReason reason =
                             fault_.drop_reason(pkt.src, src_dc, dst, dst_dc);
                         reason != DropReason::kNone) {
                       count_drop(reason, pkt.src, dst);
                       return;
                     }
                     auto it = nodes_.find(dst);
                     if (it != nodes_.end() && it->second.receiver) {
                       it->second.receiver(pkt);
                     }
                   });
}

}  // namespace domino::net
