#include "statemachine/kvstore.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "paxos/client.h"
#include "paxos/replica.h"
#include "recovery/durable.h"
#include "support/fixtures.h"

namespace domino::sm {
namespace {

Command cmd(std::uint64_t seq, std::string key, std::string value) {
  Command c;
  c.id = RequestId{NodeId{1}, seq};
  c.key = std::move(key);
  c.value = std::move(value);
  return c;
}

TEST(KvStore, ApplyInsertsThenOverwrites) {
  KvStore s;
  s.apply(cmd(0, "a", "1"));
  EXPECT_EQ(s.get("a"), "1");
  s.apply(cmd(1, "a", "2"));
  EXPECT_EQ(s.get("a"), "2");
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.applied_count(), 2u);
}

TEST(KvStore, GetMissingIsNullopt) {
  KvStore s;
  EXPECT_FALSE(s.get("nope").has_value());
}

TEST(KvStore, DistinctKeys) {
  KvStore s;
  s.apply(cmd(0, "a", "1"));
  s.apply(cmd(1, "b", "2"));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.get("a"), "1");
  EXPECT_EQ(s.get("b"), "2");
}

TEST(KvStore, ItemsExposesContents) {
  KvStore s;
  s.apply(cmd(0, "x", "y"));
  EXPECT_EQ(s.items().at("x"), "y");
}

// Reference fingerprint over a std::unordered_map: FNV-1a over key,
// separator, value, separator, summed over entries. Golden run digests
// record KvStore::fingerprint(), so its bits must not depend on the table.
std::uint64_t reference_fingerprint(const std::unordered_map<std::string, std::string>& data) {
  std::uint64_t total = 0;
  for (const auto& [key, value] : data) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::string* s : {&key, &value}) {
      for (unsigned char c : *s) {
        h ^= c;
        h *= 0x100000001b3ull;
      }
      h ^= 0xff;
      h *= 0x100000001b3ull;
    }
    total += h;
  }
  return total;
}

// Strings around the 15-byte inline limit, the empty string, and long ones.
std::string random_string(Rng& rng) {
  static constexpr std::size_t kLengths[] = {0, 1, 8, 14, 15, 16, 17, 40};
  std::string s(kLengths[rng.next_u64() % std::size(kLengths)], ' ');
  for (char& c : s) c = static_cast<char>('a' + rng.next_u64() % 4);
  return s;
}

TEST(KvStore, MatchesUnorderedMapAcrossRehashes) {
  // Keys of length 0 and 1 repeat (overwrites, often with a value of a
  // different length); longer ones are nearly always new (growth).
  Rng rng(23);
  KvStore store;
  std::unordered_map<std::string, std::string> ref;
  std::uint64_t applied = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::string key = random_string(rng);
    if (rng.next_u64() % 4 == 0) {
      const auto it = ref.find(key);
      const std::optional<std::string> expected =
          it == ref.end() ? std::nullopt : std::optional<std::string>{it->second};
      ASSERT_EQ(store.get(key), expected) << "op " << op << " key '" << key << "'";
      continue;
    }
    const std::string value = random_string(rng);
    store.apply(cmd(static_cast<std::uint64_t>(op), key, value));
    ref[key] = value;
    ++applied;
    ASSERT_EQ(store.size(), ref.size()) << "op " << op;
    if (op % 1000 == 0) {
      ASSERT_EQ(store.fingerprint(), reference_fingerprint(ref)) << "op " << op;
    }
  }
  EXPECT_GT(ref.size(), 7000u);  // the table doubled from 16 slots at least nine times
  EXPECT_EQ(store.applied_count(), applied);
  EXPECT_EQ(store.fingerprint(), reference_fingerprint(ref));
  EXPECT_EQ(store.items(), ref);
  for (const auto& [key, value] : ref) ASSERT_EQ(store.get(key), value);
}

TEST(KvStore, InlineLimitEdgesAndTheEmptyKey) {
  const std::string k15(15, 'k');
  const std::string k16(16, 'k');
  const std::string v15(15, 'v');
  const std::string v16(16, 'v');
  KvStore s;
  s.apply(cmd(0, "", v16));
  s.apply(cmd(1, k15, v15));
  s.apply(cmd(2, k16, v16));
  s.apply(cmd(3, k16 + "x", ""));
  EXPECT_EQ(s.get(""), v16);
  EXPECT_EQ(s.get(k15), v15);
  EXPECT_EQ(s.get(k16), v16);
  EXPECT_EQ(s.get(k16 + "x"), "");
  EXPECT_FALSE(s.get(k15 + "x").has_value());
  EXPECT_FALSE(s.get(std::string(14, 'k')).has_value());
  EXPECT_EQ(s.size(), 4u);
  const std::unordered_map<std::string, std::string> ref{
      {"", v16}, {k15, v15}, {k16, v16}, {k16 + "x", ""}};
  EXPECT_EQ(s.items(), ref);
  EXPECT_EQ(s.fingerprint(), reference_fingerprint(ref));
}

TEST(KvStore, LongAndShortValuesReplaceEachOther) {
  const std::string long_value(64, 'L');
  KvStore s;
  s.apply(cmd(0, "key00001", "short"));
  s.apply(cmd(1, "key00001", long_value));  // short -> long
  EXPECT_EQ(s.get("key00001"), long_value);
  s.apply(cmd(2, "key00001", long_value + "!"));  // long -> longer
  EXPECT_EQ(s.get("key00001"), long_value + "!");
  s.apply(cmd(3, "key00001", "tiny"));  // long -> short
  EXPECT_EQ(s.get("key00001"), "tiny");
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.fingerprint(), reference_fingerprint({{"key00001", "tiny"}}));
}

TEST(KvStore, SnapshotInstallReplacesContents) {
  KvStore s;
  s.apply(cmd(0, "stale", "gone"));
  const std::vector<recovery::KvEntry> snapshot{{"", "empty-key"},
                                                 {std::string(15, 'a'), "x"},
                                                 {std::string(30, 'b'), std::string(20, 'c')}};
  s.install_snapshot(snapshot, 41);
  EXPECT_EQ(s.applied_count(), 41u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.get("stale").has_value());
  EXPECT_EQ(s.get(std::string(30, 'b')), std::string(20, 'c'));
  EXPECT_EQ(s.get(""), "empty-key");
}

// The catch-up path end to end: a Multi-Paxos follower whose durable log
// keeps nothing restarts amnesiac, so its store can only come back through
// a peer's CatchupReply snapshot (exported by iterating the peer's table,
// encoded, decoded, installed). Keys and values straddle the inline limit.
TEST(KvStore, SnapshotRoundTripsThroughCatchup) {
  sim::Simulator simulator;
  net::Network network{simulator, test::four_dc(), 1};
  recovery::DurableStore durable;
  const std::vector<NodeId> rids = test::replica_ids(3);
  std::vector<std::unique_ptr<paxos::Replica>> replicas;
  for (std::size_t dc = 0; dc < rids.size(); ++dc) {
    replicas.push_back(std::make_unique<paxos::Replica>(rids[dc], dc, network, rids, rids[0]));
    replicas.back()->attach();
    replicas.back()->enable_durability(durable);
  }
  durable.weaken(rids[1]);
  paxos::Client client(NodeId{1000}, 3, network, rids[0]);
  client.attach();

  Rng rng(5);
  std::unordered_map<std::string, std::string> ref;
  for (std::uint64_t seq = 0; seq < 300; ++seq) {
    std::string key = random_string(rng);
    std::string value = random_string(rng);
    ref[key] = value;
    client.submit(test::make_command(client.id(), seq, std::move(key), std::move(value)));
  }
  simulator.run();
  ASSERT_EQ(client.committed_count(), 300u);
  ASSERT_EQ(replicas[1]->store().items(), ref);

  replicas[1]->restart();
  EXPECT_EQ(replicas[1]->store().size(), 0u);
  simulator.run();
  EXPECT_FALSE(replicas[1]->catching_up());
  EXPECT_GE(durable.aggregate().catchup_installs, 1u);
  const KvStore& restored = replicas[1]->store();
  EXPECT_EQ(restored.items(), ref);
  EXPECT_EQ(restored.size(), ref.size());
  EXPECT_EQ(restored.fingerprint(), reference_fingerprint(ref));
  EXPECT_EQ(restored.fingerprint(), replicas[0]->store().fingerprint());
  EXPECT_EQ(restored.applied_count(), replicas[0]->store().applied_count());
}

TEST(Command, ConflictSemantics) {
  EXPECT_TRUE(cmd(0, "k", "1").conflicts_with(cmd(1, "k", "2")));
  EXPECT_FALSE(cmd(0, "k", "1").conflicts_with(cmd(1, "j", "1")));
}

TEST(Command, WireRoundTrip) {
  const Command c = cmd(7, "key00001", "val00002");
  wire::ByteWriter w;
  wire::write(w, c);
  const wire::Payload p = w.take();
  wire::ByteReader r{p};
  EXPECT_EQ(wire::read<Command>(r), c);
}

}  // namespace
}  // namespace domino::sm
