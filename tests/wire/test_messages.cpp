// Round-trip and recorded-byte tests for every protocol message envelope.
#include <gtest/gtest.h>

#include "core/messages.h"
#include "epaxos/messages.h"
#include "fastpaxos/messages.h"
#include "measure/messages.h"
#include "measure/proxy.h"
#include "mencius/messages.h"
#include "paxos/messages.h"
#include "recovery/messages.h"
#include "wire/message.h"

namespace domino {
namespace {

sm::Command test_command() {
  sm::Command c;
  c.id = RequestId{NodeId{1001}, 42};
  c.key = "k0000001";
  c.value = "v0000042";
  return c;
}

template <typename M>
M round_trip(const M& msg) {
  const wire::Payload p = wire::encode_message(msg);
  EXPECT_EQ(wire::peek_type(p), M::kType);
  return wire::decode_message<M>(p);
}

TEST(Envelope, TypeMismatchThrows) {
  measure::Probe probe;
  probe.seq = 1;
  const wire::Payload p = wire::encode_message(probe);
  EXPECT_THROW(static_cast<void>(wire::decode_message<measure::ProbeReply>(p)), wire::WireError);
}

TEST(Envelope, TrailingGarbageThrows) {
  measure::Probe probe;
  wire::Payload p = wire::encode_message(probe);
  p.push_back(0x00);
  EXPECT_THROW(static_cast<void>(wire::decode_message<measure::Probe>(p)), wire::WireError);
}

TEST(MeasureMessages, ProbeRoundTrip) {
  measure::Probe m;
  m.seq = 77;
  m.sender_local_time = TimePoint::epoch() + milliseconds(5);
  const auto d = round_trip(m);
  EXPECT_EQ(d.seq, 77u);
  EXPECT_EQ(d.sender_local_time, m.sender_local_time);
}

TEST(MeasureMessages, ProbeReplyRoundTrip) {
  measure::ProbeReply m;
  m.seq = 3;
  m.echo_sender_local_time = TimePoint::epoch() + milliseconds(1);
  m.replica_local_time = TimePoint::epoch() + milliseconds(35);
  m.replication_latency = milliseconds(136);
  const auto d = round_trip(m);
  EXPECT_EQ(d.replica_local_time, m.replica_local_time);
  EXPECT_EQ(d.replication_latency, milliseconds(136));
}

TEST(PaxosMessages, AllRoundTrip) {
  EXPECT_EQ(round_trip(paxos::ClientRequest{test_command()}).command, test_command());
  const auto a = round_trip(paxos::Accept{9, test_command()});
  EXPECT_EQ(a.index, 9u);
  EXPECT_EQ(a.command, test_command());
  EXPECT_EQ(round_trip(paxos::AcceptReply{5}).index, 5u);
  const auto c = round_trip(paxos::Commit{6, test_command()});
  EXPECT_EQ(c.index, 6u);
  EXPECT_EQ(c.command, test_command());  // rides along for late learners
  EXPECT_EQ(round_trip(paxos::ClientReply{test_command().id}).request, test_command().id);
}

TEST(MenciusMessages, AllRoundTrip) {
  EXPECT_EQ(round_trip(mencius::ClientRequest{test_command()}).command, test_command());
  const auto a = round_trip(mencius::Accept{12, test_command(), 12});
  EXPECT_EQ(a.index, 12u);
  EXPECT_EQ(a.skip_through, 12u);
  const auto ar = round_trip(mencius::AcceptReply{12, 15});
  EXPECT_EQ(ar.skip_through, 15u);
  const auto c = round_trip(mencius::Commit{4, test_command()});
  EXPECT_EQ(c.index, 4u);
  EXPECT_EQ(c.command, test_command());  // rides along for late learners
  EXPECT_EQ(round_trip(mencius::CommitAck{7}).index, 7u);
  EXPECT_EQ(round_trip(mencius::Skip{33}).skip_through, 33u);
  EXPECT_EQ(round_trip(mencius::ClientReply{test_command().id}).request, test_command().id);
}

TEST(EpaxosMessages, PreAcceptRoundTrip) {
  epaxos::PreAccept m;
  m.instance = {NodeId{2}, 17};
  m.command = test_command();
  m.seq = 5;
  m.deps = {{NodeId{0}, 3}, {NodeId{1}, 9}};
  const auto d = round_trip(m);
  EXPECT_EQ(d.instance, m.instance);
  EXPECT_EQ(d.seq, 5u);
  EXPECT_EQ(d.deps, m.deps);
}

TEST(EpaxosMessages, RemainingRoundTrip) {
  epaxos::PreAcceptReply pr;
  pr.instance = {NodeId{1}, 2};
  pr.seq = 7;
  pr.deps = {{NodeId{2}, 1}};
  EXPECT_EQ(round_trip(pr).deps, pr.deps);

  epaxos::Accept a;
  a.instance = {NodeId{0}, 0};
  a.command = test_command();
  a.seq = 1;
  EXPECT_EQ(round_trip(a).command, test_command());

  EXPECT_EQ(round_trip(epaxos::AcceptReply{{NodeId{1}, 5}}).instance,
            (epaxos::InstanceId{NodeId{1}, 5}));

  epaxos::Commit c;
  c.instance = {NodeId{2}, 8};
  c.command = test_command();
  c.seq = 3;
  c.deps = {{NodeId{0}, 7}};
  const auto dc = round_trip(c);
  EXPECT_EQ(dc.deps, c.deps);
  EXPECT_EQ(round_trip(epaxos::ClientReply{test_command().id}).request, test_command().id);
}

TEST(FastPaxosMessages, AllRoundTrip) {
  EXPECT_EQ(round_trip(fastpaxos::ClientRequest{test_command()}).command, test_command());
  const auto n = round_trip(fastpaxos::AcceptNotice{44, test_command()});
  EXPECT_EQ(n.index, 44u);
  const auto ra = round_trip(fastpaxos::RecoveryAccept{7, true, {}});
  EXPECT_TRUE(ra.is_noop);
  EXPECT_EQ(round_trip(fastpaxos::RecoveryReply{7}).index, 7u);
  const auto cm = round_trip(fastpaxos::Commit{9, false, test_command()});
  EXPECT_FALSE(cm.is_noop);
  EXPECT_EQ(cm.command, test_command());
  EXPECT_EQ(round_trip(fastpaxos::ClientReply{test_command().id}).request, test_command().id);
}

TEST(DominoMessages, DfpRoundTrip) {
  core::DfpPropose p;
  p.ts = 123'456'789;
  p.command = test_command();
  const auto dp = round_trip(p);
  EXPECT_EQ(dp.ts, 123'456'789);
  EXPECT_EQ(dp.command, test_command());

  core::DfpAcceptNotice n;
  n.ts = 55;
  n.accepted = true;
  n.command = test_command();
  n.sender_local_time = TimePoint::epoch() + seconds(1);
  const auto dn = round_trip(n);
  EXPECT_TRUE(dn.accepted);
  EXPECT_EQ(dn.sender_local_time, n.sender_local_time);

  const auto cm = round_trip(core::DfpCommit{99, true, {}});
  EXPECT_TRUE(cm.is_noop);
  EXPECT_EQ(round_trip(core::DfpRecoveryAccept{4, false, test_command()}).command,
            test_command());
  EXPECT_EQ(round_trip(core::DfpRecoveryReply{13}).ts, 13);
  EXPECT_EQ(round_trip(core::DfpClientReply{test_command().id}).request, test_command().id);
}

TEST(DominoMessages, HeartbeatRoundTrip) {
  core::Heartbeat h;
  h.sender_local_time = TimePoint::epoch() + milliseconds(777);
  h.dfp_commit_frontier = 123456;
  const auto d = round_trip(h);
  EXPECT_EQ(d.sender_local_time, h.sender_local_time);
  EXPECT_EQ(d.dfp_commit_frontier, 123456);
}

TEST(DominoMessages, DmRoundTrip) {
  EXPECT_EQ(round_trip(core::DmPropose{test_command()}).command, test_command());
  const auto a = round_trip(core::DmAccept{1000, 2, test_command()});
  EXPECT_EQ(a.ts, 1000);
  EXPECT_EQ(a.lane, 2u);
  const auto ar = round_trip(core::DmAcceptReply{1000, 2});
  EXPECT_EQ(ar.lane, 2u);
  const auto c = round_trip(core::DmCommit{1000, 1});
  EXPECT_EQ(c.ts, 1000);
  EXPECT_EQ(round_trip(core::DmClientReply{test_command().id}).request, test_command().id);
}

TEST(LogPosition, EncodeDecode) {
  wire::ByteWriter w;
  wire::write(w, log::LogPosition{-5, 3});
  const wire::Payload p = w.take();
  wire::ByteReader r{p};
  const auto pos = wire::read<log::LogPosition>(r);
  EXPECT_EQ(pos.ts, -5);
  EXPECT_EQ(pos.lane, 3u);
}

// ---------------------------------------------------------------------------
// Byte-level golden: one instance of every message struct, encoded and
// compared with hex recorded from a known-good build. Round trips cannot
// catch an encoder and decoder that change in step; this can. Values are
// chosen to exercise every encoding: negative svarints, varints of 2^33 and
// above, empty and non-empty vectors, and empty and non-empty aux bytes.
// ---------------------------------------------------------------------------

std::string hex(const wire::Payload& p) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t b : p) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0xF];
  }
  return s;
}

constexpr std::uint64_t kBig = (std::uint64_t{1} << 33) + 5;
constexpr std::int64_t kNeg = -(std::int64_t{1} << 34) - 3;

sm::Command golden_command() {
  return sm::Command{RequestId{NodeId{1001}, kBig}, "k0000001", "v42"};
}

std::vector<std::pair<std::string, wire::Payload>> every_message() {
  const sm::Command cmd = golden_command();
  const sm::Command empty_value{RequestId{NodeId{7}, 3}, "k", ""};
  const RequestId rid{NodeId{1002}, kBig + 1};
  const TimePoint tp = TimePoint::epoch() + milliseconds(777);
  const TimePoint neg_tp{kNeg};
  const epaxos::InstanceId inst{NodeId{2}, kBig};
  const epaxos::DepList deps = {{NodeId{0}, 3}, {NodeId{1}, kBig}};
  const std::vector<core::RangeEntryWire> entries = {{kNeg, cmd}, {5, empty_value}};

  std::vector<std::pair<std::string, wire::Payload>> out;
  const auto add = [&out](const auto& msg) {
    out.emplace_back(wire::message_type_name(msg.kType), wire::encode_message(msg));
  };
  add(measure::Probe{kBig, neg_tp});
  add(measure::ProbeReply{3, tp, neg_tp, milliseconds(136)});
  add(measure::ProxyQuery{});
  add(measure::ProxyReport{
      99.9,
      {{NodeId{1}, milliseconds(20), Duration{-10}, milliseconds(40), false, false},
       {NodeId{2}, Duration::max(), Duration::max(), Duration::max(), true, true}}});

  add(paxos::ClientRequest{cmd});
  add(paxos::Accept{kBig, cmd});
  add(paxos::AcceptReply{kBig});
  add(paxos::Commit{6, empty_value});
  add(paxos::ClientReply{rid});

  add(mencius::ClientRequest{cmd});
  add(mencius::Accept{12, cmd, kBig});
  add(mencius::AcceptReply{kBig, 15});
  add(mencius::Commit{4, cmd});
  add(mencius::CommitAck{kBig});
  add(mencius::Skip{33});
  add(mencius::ClientReply{rid});

  add(epaxos::ClientRequest{cmd});
  add(epaxos::PreAccept{inst, cmd, kBig, deps});
  add(epaxos::PreAcceptReply{inst, 7, {}});
  add(epaxos::Accept{{NodeId{0}, 0}, empty_value, 1, {deps[1]}});
  add(epaxos::AcceptReply{inst});
  add(epaxos::Commit{inst, cmd, 3, deps});
  add(epaxos::ClientReply{rid});

  add(fastpaxos::ClientRequest{cmd});
  add(fastpaxos::AcceptNotice{kBig, cmd});
  add(fastpaxos::RecoveryAccept{7, true, {}});
  add(fastpaxos::RecoveryReply{kBig});
  add(fastpaxos::Commit{9, false, cmd});
  add(fastpaxos::ClientReply{rid});

  add(core::DfpPropose{kNeg, cmd});
  add(core::DfpAcceptNotice{55, true, cmd, neg_tp});
  add(core::DfpCommit{99, true, {}});
  add(core::DfpRecoveryAccept{kNeg, false, cmd});
  add(core::DfpRecoveryReply{kNeg});
  add(core::DfpClientReply{rid});
  add(core::Heartbeat{tp, -1});
  add(core::DmPropose{cmd});
  add(core::DmAccept{kNeg, 2, cmd});
  add(core::DmAcceptReply{1000, 3});
  add(core::DmCommit{static_cast<std::int64_t>(kBig), 1});
  add(core::DmClientReply{rid});
  add(core::RangeRecover{1, -3, static_cast<std::int64_t>(kBig)});
  add(core::RangeReply{2, kNeg, 8, entries});
  add(core::RangeResolve{0, 1, 2, {}});

  add(recovery::CatchupRequest{kBig, 7});
  add(recovery::CatchupReply{
      kBig,
      12,
      kNeg,
      3,
      {{"a", "1"}, {"", ""}},
      {-1, 0, static_cast<std::int64_t>(kBig)},
      {{kNeg, 2, cmd, {0x01, 0xFF}}, {4, 0, empty_value, {}}}});
  return out;
}

struct GoldenEncoding {
  const char* name;
  const char* hex;
};

// ProxyReport's percentile is the 8-byte bit pattern of the double.
constexpr GoldenEncoding kGolden[] = {
    {"Probe", "01008580808020858080808001"},
    {"ProbeReply", "02000380d180e50585808080800180c8d98101"},
    {"ProxyQuery", "4100"},
    {"ProxyReport",
     "42009a99999999f95840020100000080b489131380e89226000002000000feffffffffffffffff01feff"
     "ffffffffffffff01feffffffffffffffff010101"},
    {"PaxosClientRequest", "0a00e90300008580808020086b3030303030303103763432"},
    {"PaxosAccept", "0b008580808020e90300008580808020086b3030303030303103763432"},
    {"PaxosAcceptReply", "0c008580808020"},
    {"PaxosCommit", "0d00060700000003016b00"},
    {"PaxosClientReply", "0e00ea0300008680808020"},
    {"MenciusClientRequest", "1400e90300008580808020086b3030303030303103763432"},
    {"MenciusAccept", "15000ce90300008580808020086b30303030303031037634328580808020"},
    {"MenciusAcceptReply", "160085808080200f"},
    {"MenciusCommit", "170004e90300008580808020086b3030303030303103763432"},
    {"MenciusCommitAck", "1b008580808020"},
    {"MenciusSkip", "180021"},
    {"MenciusClientReply", "1900ea0300008680808020"},
    {"EpaxosClientRequest", "1e00e90300008580808020086b3030303030303103763432"},
    {"EpaxosPreAccept",
     "1f00020000008580808020e90300008580808020086b3030303030303103763432858080802002000000"
     "0003010000008580808020"},
    {"EpaxosPreAcceptReply", "20000200000085808080200700"},
    {"EpaxosAccept", "210000000000000700000003016b000101010000008580808020"},
    {"EpaxosAcceptReply", "2200020000008580808020"},
    {"EpaxosCommit",
     "2300020000008580808020e90300008580808020086b3030303030303103763432030200000000030100"
     "00008580808020"},
    {"EpaxosClientReply", "2400ea0300008680808020"},
    {"FastPaxosClientRequest", "2800e90300008580808020086b3030303030303103763432"},
    {"FastPaxosAcceptNotice", "29008580808020e90300008580808020086b3030303030303103763432"},
    {"FastPaxosRecoveryAccept", "2a000701ffffffff000000"},
    {"FastPaxosRecoveryReply", "2b008580808020"},
    {"FastPaxosCommit", "2c000900e90300008580808020086b3030303030303103763432"},
    {"FastPaxosClientReply", "2d00ea0300008680808020"},
    {"DfpPropose", "3200858080808001e90300008580808020086b3030303030303103763432"},
    {"DfpAcceptNotice", "33006e01e90300008580808020086b3030303030303103763432858080808001"},
    {"DfpCommit", "3400c60101ffffffff000000"},
    {"DfpRecoveryAccept", "360085808080800100e90300008580808020086b3030303030303103763432"},
    {"DfpRecoveryReply", "3700858080808001"},
    {"DfpClientReply", "3500ea0300008680808020"},
    {"DominoHeartbeat", "380080d180e50501"},
    {"DmPropose", "3900e90300008580808020086b3030303030303103763432"},
    {"DmAccept", "3a0085808080800102e90300008580808020086b3030303030303103763432"},
    {"DmAcceptReply", "3b00d00f03"},
    {"DmCommit", "3c008a8080804001"},
    {"DmClientReply", "3d00ea0300008680808020"},
    {"RangeRecover", "460001058a80808040"},
    {"RangeReply",
     "4700028580808080011002858080808001e90300008580808020086b30303030303031037634320a0700"
     "000003016b00"},
    {"RangeResolve", "480000020400"},
    {"CatchupRequest", "4c00858080802007"},
    {"CatchupReply",
     "4d0085808080200c85808080800103020161013100000301008a808080400285808080800102e9030000"
     "8580808020086b30303030303031037634320201ff08000700000003016b0000"},
};

TEST(WireGolden, EveryMessageEncodesAsRecorded) {
  const auto encodings = every_message();
  ASSERT_EQ(encodings.size(), 46u);
  ASSERT_EQ(encodings.size(), std::size(kGolden));
  for (std::size_t i = 0; i < encodings.size(); ++i) {
    EXPECT_EQ(encodings[i].first, kGolden[i].name);
    EXPECT_EQ(hex(encodings[i].second), kGolden[i].hex) << encodings[i].first;
  }
}

}  // namespace
}  // namespace domino
