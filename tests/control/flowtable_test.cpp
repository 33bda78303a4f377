#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/rng.h"
#include "flowtable/flow_table.h"
#include "pkt/headers.h"

namespace hw::flowtable {
namespace {

using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;

FlowMod add_rule(PortId in, PortId out, std::uint16_t priority,
                 Cookie cookie = 0) {
  FlowMod mod;
  mod.command = FlowModCommand::kAdd;
  mod.priority = priority;
  mod.cookie = cookie;
  mod.match.in_port(in);
  mod.actions = {Action::output(out)};
  return mod;
}

pkt::FlowKey key_on_port(PortId port) {
  pkt::FlowKey key;
  key.in_port = port;
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = pkt::kIpProtoUdp;
  key.src_port = 1;
  key.dst_port = 2;
  return key;
}

TEST(FlowTable, AddAndLookup) {
  FlowTable table;
  auto result = table.apply(add_rule(1, 2, 10), 100);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().added, 1u);
  EXPECT_EQ(table.size(), 1u);

  FlowEntry* hit = table.lookup(key_on_port(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->install_time_ns, 100u);
  EXPECT_EQ(table.lookup(key_on_port(9)), nullptr);
}

TEST(FlowTable, AddRejectsEmptyActions) {
  FlowTable table;
  FlowMod mod;
  mod.command = FlowModCommand::kAdd;
  mod.match.in_port(1);
  EXPECT_FALSE(table.apply(mod).is_ok());
}

TEST(FlowTable, AddIdenticalMatchReplaces) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10, 111)).is_ok());
  const RuleId original_id = table.entries()[0].id;
  table.account(original_id, 5, 300);
  const std::uint64_t gen_before = table.entries()[0].generation;

  auto result = table.apply(add_rule(1, 3, 10, 222));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().modified, 1u);
  EXPECT_EQ(table.size(), 1u);
  const FlowEntry& entry = table.entries()[0];
  EXPECT_EQ(entry.id, original_id);  // identity survives the overwrite
  EXPECT_EQ(entry.cookie, 222u);
  EXPECT_EQ(entry.actions[0].port, 3);
  // OpenFlow preserves counters across an ADD overwrite (no reset flag),
  // but the generation moves so caches re-resolve the rewritten actions.
  EXPECT_EQ(entry.packet_count, 5u);
  EXPECT_EQ(entry.byte_count, 300u);
  EXPECT_GT(entry.generation, gen_before);
}

TEST(FlowTable, PriorityOrderWins) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  FlowMod high;
  high.command = FlowModCommand::kAdd;
  high.priority = 100;
  high.match.in_port(1);
  high.match.l4_dst(2);
  high.actions = {Action::output(7)};
  ASSERT_TRUE(table.apply(high).is_ok());

  FlowEntry* hit = table.lookup(key_on_port(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions[0].port, 7);  // the narrower, higher-prio rule
}

TEST(FlowTable, TieBreaksByInsertionOrder) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  FlowMod second;
  second.command = FlowModCommand::kAdd;
  second.priority = 10;
  second.match.in_port(1);
  second.match.ip_proto(pkt::kIpProtoUdp);
  second.actions = {Action::output(9)};
  ASSERT_TRUE(table.apply(second).is_ok());
  // Both match; the earlier rule (lower id) wins deterministically.
  FlowEntry* hit = table.lookup(key_on_port(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions[0].port, 2);
}

TEST(FlowTable, DeleteStrictRequiresExactIdentity) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  FlowMod del;
  del.command = FlowModCommand::kDeleteStrict;
  del.priority = 11;  // wrong priority
  del.match.in_port(1);
  auto result = table.apply(del);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().removed, 0u);
  del.priority = 10;
  result = table.apply(del);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().removed, 1u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, DeleteNonStrictUsesContainment) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(2, 3, 10)).is_ok());
  FlowMod narrow;
  narrow.command = FlowModCommand::kAdd;
  narrow.priority = 99;
  narrow.match.in_port(1);
  narrow.match.l4_dst(80);
  narrow.actions = {Action::output(5)};
  ASSERT_TRUE(table.apply(narrow).is_ok());

  // Delete everything with in_port=1 (any priority, any extra fields).
  FlowMod del;
  del.command = FlowModCommand::kDelete;
  del.match.in_port(1);
  auto result = table.apply(del);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().removed, 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.entries()[0].match.in_port_value(), 2);
}

TEST(FlowTable, DeleteAllWithWildcard) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(2, 3, 20)).is_ok());
  FlowMod del;
  del.command = FlowModCommand::kDelete;  // empty match: contains all
  auto result = table.apply(del);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().removed, 2u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, ModifyStrictAndNonStrict) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(1, 3, 20)).is_ok());

  FlowMod mod;
  mod.command = FlowModCommand::kModify;
  mod.match.in_port(1);
  mod.actions = {Action::output(9)};
  auto result = table.apply(mod);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().modified, 2u);
  for (const FlowEntry& entry : table.entries()) {
    EXPECT_EQ(entry.actions[0].port, 9);
  }

  FlowMod strict;
  strict.command = FlowModCommand::kModifyStrict;
  strict.priority = 10;
  strict.match.in_port(1);
  strict.actions = {Action::output(4)};
  result = table.apply(strict);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().modified, 1u);
}

TEST(FlowTable, VersionBumpsOnEveryChange) {
  FlowTable table;
  const std::uint64_t v0 = table.version();
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  const std::uint64_t v1 = table.version();
  EXPECT_GT(v1, v0);
  FlowMod del;
  del.command = FlowModCommand::kDelete;
  ASSERT_TRUE(table.apply(del).is_ok());
  EXPECT_GT(table.version(), v1);
  // A no-op delete does not bump.
  const std::uint64_t v2 = table.version();
  ASSERT_TRUE(table.apply(del).is_ok());
  EXPECT_EQ(table.version(), v2);
}

TEST(FlowTable, AccountAddsCounters) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  const RuleId id = table.entries()[0].id;
  table.account(id, 10, 640);
  table.account(id, 5, 320);
  EXPECT_EQ(table.find(id)->packet_count, 15u);
  EXPECT_EQ(table.find(id)->byte_count, 960u);
  table.account(kRuleNone, 1, 1);  // unknown rule: silently ignored
}

TEST(FlowTable, EntriesSortedByPriority) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 5)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(2, 3, 50)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(3, 4, 20)).is_ok());
  const auto& entries = table.entries();
  EXPECT_TRUE(std::is_sorted(
      entries.begin(), entries.end(),
      [](const FlowEntry& a, const FlowEntry& b) {
        return a.priority > b.priority;
      }));
}

// ---------------------------------------------------------- change events

TEST(FlowTable, ChangeEventsCarryCommandMatchAndRuleIds) {
  FlowTable table;
  std::vector<TableChangeEvent> events;
  const std::uint64_t token = table.subscribe(
      [&](const TableChangeEvent& event) { events.push_back(event); });

  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].command, FlowModCommand::kAdd);
  EXPECT_EQ(events[0].priority, 10);
  EXPECT_EQ(events[0].match.in_port_value(), 1);
  ASSERT_EQ(events[0].added.size(), 1u);
  EXPECT_EQ(events[0].version, table.version());
  const RuleId id = events[0].added[0];
  EXPECT_EQ(table.find(id)->generation, events[0].version);

  // Overwrite: same id reported as modified, generation restamped.
  ASSERT_TRUE(table.apply(add_rule(1, 3, 10)).is_ok());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].modified, std::vector<RuleId>{id});
  EXPECT_EQ(table.find(id)->generation, events[1].version);

  FlowMod mod;
  mod.command = FlowModCommand::kModify;
  mod.match.in_port(1);
  mod.actions = {Action::output(5)};
  ASSERT_TRUE(table.apply(mod).is_ok());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].command, FlowModCommand::kModify);
  EXPECT_EQ(events[2].modified, std::vector<RuleId>{id});

  FlowMod del;
  del.command = FlowModCommand::kDelete;
  ASSERT_TRUE(table.apply(del).is_ok());
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[3].removed, std::vector<RuleId>{id});

  // A no-op FlowMod emits no event.
  ASSERT_TRUE(table.apply(del).is_ok());
  EXPECT_EQ(events.size(), 4u);

  table.unsubscribe(token);
  ASSERT_TRUE(table.apply(add_rule(2, 3, 10)).is_ok());
  EXPECT_EQ(events.size(), 4u);
}

TEST(FlowTable, FindResolvesByIdThroughChurn) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(2, 3, 50)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(3, 4, 20)).is_ok());
  const RuleId first = table.entries()[2].id;   // priority 10 sorts last
  const RuleId second = table.entries()[0].id;  // priority 50 sorts first
  ASSERT_NE(table.find(first), nullptr);
  EXPECT_EQ(table.find(first)->priority, 10);
  EXPECT_EQ(table.find(second)->priority, 50);
  EXPECT_EQ(table.find(9999), nullptr);

  // Deleting re-indexes the survivors.
  FlowMod del;
  del.command = FlowModCommand::kDeleteStrict;
  del.priority = 50;
  del.match.in_port(2);
  ASSERT_TRUE(table.apply(del).is_ok());
  EXPECT_EQ(table.find(second), nullptr);
  ASSERT_NE(table.find(first), nullptr);
  EXPECT_EQ(table.find(first)->match.in_port_value(), 1);
}

// ------------------------------------------------------------------- EMC

TEST(ExactMatchCache, HitAfterInsert) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  FlowEntry* rule = table.lookup(key_on_port(1));
  ASSERT_NE(rule, nullptr);

  ExactMatchCache emc(64);
  const pkt::FlowKey key = key_on_port(1);
  const std::uint32_t hash = pkt::flow_key_hash(key);
  EXPECT_EQ(emc.lookup(key, hash, table), nullptr);
  emc.insert(key, hash, rule->id, rule->generation);
  EXPECT_EQ(emc.lookup(key, hash, table), rule);
  EXPECT_EQ(emc.hits(), 1u);
  EXPECT_EQ(emc.misses(), 1u);
}

TEST(ExactMatchCache, GenerationChangeRejectsStaleRule) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  FlowEntry* rule = table.lookup(key_on_port(1));
  ExactMatchCache emc(64);
  const pkt::FlowKey key = key_on_port(1);
  const std::uint32_t hash = pkt::flow_key_hash(key);
  emc.insert(key, hash, rule->id, rule->generation);

  // Rewriting the rule's actions moves its generation: the cached stamp
  // no longer matches and the slot must not serve.
  FlowMod mod;
  mod.command = FlowModCommand::kModify;
  mod.match.in_port(1);
  mod.actions = {Action::output(9)};
  ASSERT_TRUE(table.apply(mod).is_ok());
  EXPECT_EQ(emc.lookup(key, hash, table), nullptr);
  EXPECT_EQ(emc.stale_rejects(), 1u);
}

TEST(ExactMatchCache, DeletedRuleIsNeverServed) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 2, 10)).is_ok());
  FlowEntry* rule = table.lookup(key_on_port(1));
  ExactMatchCache emc(64);
  const pkt::FlowKey key = key_on_port(1);
  const std::uint32_t hash = pkt::flow_key_hash(key);
  emc.insert(key, hash, rule->id, rule->generation);
  FlowMod del;
  del.command = FlowModCommand::kDelete;
  ASSERT_TRUE(table.apply(del).is_ok());
  EXPECT_EQ(emc.lookup(key, hash, table), nullptr);
  EXPECT_EQ(emc.stale_rejects(), 1u);
}

TEST(ExactMatchCache, DifferentKeySameBucketMisses) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 5, 10)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(2, 6, 10)).is_ok());
  FlowEntry* rule1 = table.lookup(key_on_port(1));
  FlowEntry* rule2 = table.lookup(key_on_port(2));

  ExactMatchCache emc(1);  // single bucket: every key collides
  const pkt::FlowKey key1 = key_on_port(1);
  const pkt::FlowKey key2 = key_on_port(2);
  emc.insert(key1, pkt::flow_key_hash(key1), rule1->id, rule1->generation);
  EXPECT_EQ(emc.lookup(key2, pkt::flow_key_hash(key2), table), nullptr);
  // The colliding insert overwrites.
  emc.insert(key2, pkt::flow_key_hash(key2), rule2->id, rule2->generation);
  EXPECT_EQ(emc.lookup(key2, pkt::flow_key_hash(key2), table), rule2);
}

TEST(ExactMatchCache, RevalidateRepairsOnlyAffectedSlots) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 5, 10)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(2, 6, 10)).is_ok());
  std::vector<TableChangeEvent> events;
  const std::uint64_t token = table.subscribe(
      [&](const TableChangeEvent& event) { events.push_back(event); });

  ExactMatchCache emc(64);
  const pkt::FlowKey key1 = key_on_port(1);
  const pkt::FlowKey key2 = key_on_port(2);
  for (const pkt::FlowKey& key : {key1, key2}) {
    FlowEntry* rule = table.lookup(key);
    emc.insert(key, pkt::flow_key_hash(key), rule->id, rule->generation);
  }

  // A higher-priority rule shadows port 1 only.
  ASSERT_TRUE(table.apply(add_rule(1, 9, 200)).is_ok());
  ASSERT_EQ(events.size(), 1u);
  const auto counts = emc.revalidate_batch(events, table);
  EXPECT_EQ(counts.scanned, 2u);
  EXPECT_EQ(counts.repaired, 1u);
  EXPECT_EQ(counts.evicted, 0u);

  // Port 1 now serves the shadowing rule; port 2 was untouched.
  FlowEntry* hit1 = emc.lookup(key1, pkt::flow_key_hash(key1), table);
  ASSERT_NE(hit1, nullptr);
  EXPECT_EQ(hit1->priority, 200);
  FlowEntry* hit2 = emc.lookup(key2, pkt::flow_key_hash(key2), table);
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(hit2->priority, 10);
  EXPECT_EQ(emc.stale_rejects(), 0u);
  table.unsubscribe(token);
}

TEST(ExactMatchCache, BatchRevalidateCoalescesEventsIntoOnePass) {
  FlowTable table;
  ASSERT_TRUE(table.apply(add_rule(1, 5, 10)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(2, 6, 10)).is_ok());
  std::vector<TableChangeEvent> events;
  const std::uint64_t token = table.subscribe(
      [&](const TableChangeEvent& event) { events.push_back(event); });

  ExactMatchCache emc(64);
  const pkt::FlowKey key1 = key_on_port(1);
  const pkt::FlowKey key2 = key_on_port(2);
  for (const pkt::FlowKey& key : {key1, key2}) {
    FlowEntry* rule = table.lookup(key);
    emc.insert(key, pkt::flow_key_hash(key), rule->id, rule->generation);
  }

  // A burst: shadow port 1 twice (rising priorities). One coalesced pass
  // must examine each occupied slot once and re-resolve the affected
  // slot once — landing on the same winner per-event processing would.
  ASSERT_TRUE(table.apply(add_rule(1, 9, 200)).is_ok());
  ASSERT_TRUE(table.apply(add_rule(1, 8, 300)).is_ok());
  ASSERT_EQ(events.size(), 2u);
  const auto counts = emc.revalidate_batch(events, table);
  EXPECT_EQ(counts.scanned, 2u);  // one pass over the two occupied slots
  EXPECT_EQ(counts.repaired, 1u);
  EXPECT_EQ(counts.evicted, 0u);

  FlowEntry* hit1 = emc.lookup(key1, pkt::flow_key_hash(key1), table);
  ASSERT_NE(hit1, nullptr);
  EXPECT_EQ(hit1->priority, 300);
  FlowEntry* hit2 = emc.lookup(key2, pkt::flow_key_hash(key2), table);
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(hit2->priority, 10);
  table.unsubscribe(token);
}

/// Property: lookup() equals a brute-force reference over random tables.
/// Each rule constrains each of the seven match fields three times in
/// four, IPv4 fields at prefix lengths 0, 1, 8, 30, 31 or 32; rule and
/// key values come from small domains so that every field decides some
/// lookups and some keys miss.
class FlowTableModelTest : public ::testing::TestWithParam<std::uint64_t> {};

std::uint32_t draw_model_ip(Rng& rng) {
  return (rng.chance(1, 4) ? pkt::ipv4(138, 0, 0, 0) : pkt::ipv4(10, 0, 0, 0)) |
         static_cast<std::uint32_t>(rng.next_below(8));
}

openflow::Match draw_model_match(Rng& rng) {
  constexpr std::array<std::uint8_t, 6> kPlens = {0, 1, 8, 30, 31, 32};
  openflow::Match m;
  if (rng.chance(3, 4)) m.in_port(static_cast<PortId>(rng.next_below(4)));
  if (rng.chance(3, 4)) m.eth_type(pkt::kEtherTypeIpv4);
  if (rng.chance(3, 4)) {
    m.ip_proto(rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp);
  }
  if (rng.chance(3, 4)) {
    m.ip_src(draw_model_ip(rng), kPlens[rng.next_below(kPlens.size())]);
  }
  if (rng.chance(3, 4)) {
    m.ip_dst(draw_model_ip(rng), kPlens[rng.next_below(kPlens.size())]);
  }
  if (rng.chance(3, 4)) m.l4_src(static_cast<std::uint16_t>(rng.next_below(3)));
  if (rng.chance(3, 4)) m.l4_dst(static_cast<std::uint16_t>(rng.next_below(3)));
  return m;
}

TEST_P(FlowTableModelTest, LookupMatchesBruteForce) {
  Rng rng(GetParam());
  FlowTable table;
  for (int i = 0; i < 60; ++i) {
    FlowMod mod;
    mod.command = FlowModCommand::kAdd;
    mod.priority = static_cast<std::uint16_t>(rng.next_below(8));
    mod.match = draw_model_match(rng);
    mod.actions = {Action::output(static_cast<PortId>(rng.next_below(8)))};
    ASSERT_TRUE(table.apply(mod).is_ok());
  }

  std::size_t misses = 0;
  for (int i = 0; i < 2000; ++i) {
    pkt::FlowKey key;
    key.in_port = static_cast<PortId>(rng.next_below(4));
    key.ether_type = rng.chance(7, 8) ? pkt::kEtherTypeIpv4 : 0;
    key.ip_proto = rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp;
    key.src_ip = draw_model_ip(rng);
    key.dst_ip = draw_model_ip(rng);
    key.src_port = static_cast<std::uint16_t>(rng.next_below(3));
    key.dst_port = static_cast<std::uint16_t>(rng.next_below(3));

    // Brute-force reference: max priority, then min id.
    const FlowEntry* expected = nullptr;
    for (const FlowEntry& entry : table.entries()) {
      if (!entry.match.matches(key)) continue;
      if (expected == nullptr || entry.priority > expected->priority ||
          (entry.priority == expected->priority &&
           entry.id < expected->id)) {
        expected = &entry;
      }
    }
    FlowEntry* actual = table.lookup(key);
    if (expected == nullptr) {
      ASSERT_EQ(actual, nullptr);
      ++misses;
    } else {
      ASSERT_NE(actual, nullptr);
      ASSERT_EQ(actual->id, expected->id);
    }
  }
  EXPECT_GT(misses, 0u);  // both outcomes occur
  EXPECT_LT(misses, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableModelTest,
                         ::testing::Values(7, 19, 31, 53));

/// The ports the churn below pins rules on; keys also arrive on others.
constexpr std::array<PortId, 4> kChurnPorts = {0, 1, 5, 9};

openflow::Match draw_churn_match(Rng& rng) {
  constexpr std::array<std::uint8_t, 4> kPlens = {0, 8, 31, 32};
  openflow::Match m;
  if (rng.chance(2, 3)) m.in_port(kChurnPorts[rng.next_below(4)]);
  if (rng.chance(1, 3)) m.eth_type(pkt::kEtherTypeIpv4);
  if (rng.chance(1, 2)) {
    m.ip_proto(rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp);
  }
  if (rng.chance(1, 2)) m.ip_src(draw_model_ip(rng), kPlens[rng.next_below(4)]);
  if (rng.chance(1, 2)) m.ip_dst(draw_model_ip(rng), kPlens[rng.next_below(4)]);
  if (rng.chance(1, 3)) m.l4_dst(static_cast<std::uint16_t>(rng.next_below(3)));
  return m;
}

/// unwildcarded() reads a table, and first_match() scans compiled tests,
/// that apply() keeps in step with entries() as rules are inserted,
/// overwritten and compacted away. After every FlowMod of a seeded churn,
/// both must equal their definitions: the unite of the matches of the
/// first k rules, and the first rule in entries() order whose freshly
/// compiled match the key passes (entries().size() on a miss).
TEST(FlowTable, UnwildcardTableEqualsTheUniteFold) {
  Rng rng(2027);
  FlowTable table;
  // Keys arrive on every pinned port and on ports no rule pins.
  constexpr std::array<PortId, 10> kKeyPorts = {0, 1, 2, 5, 7, 9, 10, 4095,
                                                0xfffe, 0xffff};
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t empty_tables = 0;
  std::size_t overwrites = 0;
  const auto check = [&] {
    const std::vector<FlowEntry>& entries = table.entries();
    if (entries.empty()) ++empty_tables;
    openflow::MaskSpec fold;
    ASSERT_EQ(table.unwildcarded(0), fold);
    for (std::size_t k = 0; k < entries.size(); ++k) {
      openflow::unite(fold, entries[k].match);
      ASSERT_EQ(table.unwildcarded(k + 1), fold)
          << "first " << k + 1 << " rules: " << fold.to_string();
    }
    for (const PortId port : kKeyPorts) {
      for (int i = 0; i < 6; ++i) {
        pkt::FlowKey key;
        key.in_port = port;
        key.ether_type = rng.chance(7, 8) ? pkt::kEtherTypeIpv4 : 0;
        key.ip_proto = rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp;
        key.src_ip = draw_model_ip(rng);
        key.dst_ip = draw_model_ip(rng);
        key.dst_port = static_cast<std::uint16_t>(rng.next_below(3));
        const openflow::PackedKey packed = openflow::pack(key);
        std::size_t expected = 0;
        while (expected < entries.size() &&
               !entries[expected].match.compile().matches(packed)) {
          ++expected;
        }
        ASSERT_EQ(table.first_match(packed), expected) << "in_port " << port;
        ++(expected < entries.size() ? hits : misses);
      }
    }
  };

  check();  // the empty table
  for (int step = 0; step < 400; ++step) {
    FlowMod mod;
    mod.priority = static_cast<std::uint16_t>(rng.next_below(6));
    mod.match = draw_churn_match(rng);
    mod.actions = {Action::output(static_cast<PortId>(rng.next_below(8)))};
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 45) {
      mod.command = FlowModCommand::kAdd;
    } else if (kind < 55) {
      mod.command = FlowModCommand::kModify;
    } else if (kind < 70) {
      mod.command = FlowModCommand::kDelete;
    } else if (kind < 72) {
      mod.command = FlowModCommand::kDelete;
      mod.match = openflow::Match();  // every rule
    } else if (!table.entries().empty()) {
      // Name an existing rule exactly: an ADD onto its match and
      // priority, or a strict DELETE.
      const FlowEntry& victim =
          table.entries()[rng.next_below(table.size())];
      mod.match = victim.match;
      mod.priority = victim.priority;
      mod.command = kind < 85 ? FlowModCommand::kAdd
                              : FlowModCommand::kDeleteStrict;
    } else {
      mod.command = FlowModCommand::kDeleteStrict;
    }
    const auto result = table.apply(mod);
    ASSERT_TRUE(result.is_ok());
    if (mod.command == FlowModCommand::kAdd) {
      overwrites += result.value().modified;
    }
    check();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "after FlowMod " << step << " ("
             << static_cast<int>(mod.command) << " "
             << mod.match.to_string() << " priority " << mod.priority << ")";
    }
  }
  EXPECT_GT(empty_tables, 1u);  // the start, and after a delete-all
  EXPECT_GT(overwrites, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

}  // namespace
}  // namespace hw::flowtable
