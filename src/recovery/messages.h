// Peer catch-up wire messages, shared by all five protocols.
//
// A replica that went through an amnesiac restart replays its durable image
// and then asks live peers for whatever it externally promised nothing
// about but still missed: the executed key-value state (as a snapshot), the
// committed-but-unexecuted log suffix, and the lane/owner watermarks that
// let its log frontier advance past positions the peers already resolved.
//
// The exchange is deliberately protocol-agnostic: positions are an
// (int64 pos, uint32 lane) pair — the baselines use (index, 0), Domino uses
// (timestamp, lane) — and protocol-specific attributes (EPaxos instance id
// + seq + deps + status) ride in an opaque `aux` byte string each protocol
// encodes and decodes itself.
#pragma once

#include <string>
#include <vector>

#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::recovery {

struct CatchupRequest {
  static constexpr wire::MessageType kType = wire::MessageType::kCatchupRequest;
  /// Requester's restart epoch; echoed in the reply so a reply from before
  /// a second crash is discarded.
  std::uint64_t epoch = 0;
  /// Requester's applied-command count after local replay (peers use it
  /// only for observability; the requester judges replies itself).
  std::uint64_t applied = 0;

  void encode(wire::ByteWriter& w) const {
    w.varint(epoch);
    w.varint(applied);
  }
  static CatchupRequest decode(wire::ByteReader& r) {
    CatchupRequest m;
    m.epoch = r.varint();
    m.applied = r.varint();
    return m;
  }
};

/// One key-value pair of the executed-state snapshot.
struct KvEntry {
  std::string key;
  std::string value;

  void encode(wire::ByteWriter& w) const {
    w.str(key);
    w.str(value);
  }
  static KvEntry decode(wire::ByteReader& r) {
    KvEntry e;
    e.key = r.str();
    e.value = r.str();
    return e;
  }
};

/// One committed log entry of the catch-up suffix.
struct CatchupEntry {
  std::int64_t pos = 0;    // log index (baselines) or timestamp (Domino)
  std::uint32_t lane = 0;  // 0 for the baselines; GlobalLog lane for Domino
  sm::Command command;
  /// Protocol-specific attributes (EPaxos: instance id, seq, deps, status).
  wire::Payload aux;

  void encode(wire::ByteWriter& w) const {
    w.svarint(pos);
    w.varint(lane);
    command.encode(w);
    w.bytes(aux);
  }
  static CatchupEntry decode(wire::ByteReader& r) {
    CatchupEntry e;
    e.pos = r.svarint();
    e.lane = static_cast<std::uint32_t>(r.varint());
    e.command = sm::Command::decode(r);
    e.aux = r.bytes();
    return e;
  }
};

struct CatchupReply {
  static constexpr wire::MessageType kType = wire::MessageType::kCatchupReply;
  std::uint64_t epoch = 0;    // echoed from the request
  std::uint64_t applied = 0;  // responder's applied-command count
  /// Responder's execution frontier: first unexecuted log index (baselines)
  /// or the global frontier's timestamp (Domino).
  std::int64_t frontier = 0;
  std::uint32_t frontier_lane = 0;  // Domino: the global frontier's lane
  /// Executed key-value state at the responder.
  std::vector<KvEntry> snapshot;
  /// Per-lane (Domino) or per-owner-rank (Mencius) resolved frontiers /
  /// committed-no-op watermarks; empty when the protocol has none.
  std::vector<std::int64_t> watermarks;
  /// Committed suffix: entries the responder has committed but that the
  /// snapshot (executed state) does not cover. EPaxos sends its full
  /// committed instance set here (its snapshot covers no attributes).
  std::vector<CatchupEntry> entries;

  void encode(wire::ByteWriter& w) const {
    w.varint(epoch);
    w.varint(applied);
    w.svarint(frontier);
    w.varint(frontier_lane);
    w.varint(snapshot.size());
    for (const auto& e : snapshot) e.encode(w);
    w.varint(watermarks.size());
    for (std::int64_t v : watermarks) w.svarint(v);
    w.varint(entries.size());
    for (const auto& e : entries) e.encode(w);
  }
  static CatchupReply decode(wire::ByteReader& r) {
    CatchupReply m;
    m.epoch = r.varint();
    m.applied = r.varint();
    m.frontier = r.svarint();
    m.frontier_lane = static_cast<std::uint32_t>(r.varint());
    m.snapshot.resize(r.length_prefix(2));
    for (auto& e : m.snapshot) e = KvEntry::decode(r);
    m.watermarks.resize(r.length_prefix(1));
    for (auto& v : m.watermarks) v = r.svarint();
    m.entries.resize(r.length_prefix(10));
    for (auto& e : m.entries) e = CatchupEntry::decode(r);
    return m;
  }
};

}  // namespace domino::recovery
