#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "classifier/mask.h"
#include "classifier/megaflow.h"
#include "common/rng.h"
#include "flowtable/flow_table.h"
#include "openflow/messages.h"
#include "pkt/headers.h"

/// \file reval_index_test.cpp
/// REVALIDATION-INDEX DIFFERENTIAL TEST. Both cache tiers find a drain's
/// suspects by looking them up in shape indexes (openflow::ShapeIndexSet)
/// instead of testing every entry. The reference is the pass the indexes
/// replaced: every live entry tested field by field — a megaflow entry
/// against each ADD with classifier::may_intersect and against the
/// union of the DELETEs' removed rule ids, an exact-match slot against
/// every event with Match::matches. For 20 seeds, rule sets with random
/// masks and the prefix lengths on word and field edges (0, 1, 31, 32)
/// are churned by ADD, DELETE, DELETE_STRICT and MODIFY bursts, while the
/// caches go through every slot change the indexes must follow: fresh
/// inserts, overwrites, repairs, capacity evictions, stale evictions at
/// lookup, subtable prunes, the queue-overflow flush, exact-match
/// overwrites and clear. Every drain must re-check exactly the
/// reference's suspects, and a megaflow drain must leave exactly the
/// slot layout the scan leaves: suspects processed in slot order, and an
/// evicted slot's hole swap-filled from the back and examined next. Over
/// the run the indexes must have served drains (fewer entries examined
/// than held).

namespace hw::classifier {
namespace {

using flowtable::FlowEntry;
using flowtable::FlowTable;
using flowtable::TableChangeEvent;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::Match;

constexpr std::uint32_t kRounds = 400;
constexpr std::size_t kKeyPool = 160;
constexpr std::size_t kMaxEntries = 32;   ///< small, so capacity evictions run
constexpr std::size_t kEmcSlots = 64;     ///< small, so slots are overwritten
constexpr std::uint64_t kPoison = ~std::uint64_t{0};  ///< no rule's generation

std::uint8_t draw_plen(Rng& rng) {
  constexpr std::array<std::uint8_t, 7> kPlens = {0, 1, 31, 32, 8, 16, 24};
  return kPlens[rng.next_below(kPlens.size())];
}

/// An address whose top bit, low bits and middle octets all vary, so
/// /1, /31 and /32 prefixes each split the key pool.
std::uint32_t draw_ip(Rng& rng) {
  return (rng.chance(1, 2) ? 0x80000000u : 0u) | 0x0a000000u |
         static_cast<std::uint32_t>(rng.next_below(4) << 8) |
         static_cast<std::uint32_t>(rng.next_below(4));
}

/// A random match over a small value vocabulary, so its shapes recur
/// (and get indexed) and its values hit cached keys. `min_fields` keeps
/// DELETEs off the catch-all.
Match draw_match(Rng& rng, std::uint32_t min_fields) {
  Match m;
  while (std::popcount(m.fields()) < static_cast<int>(min_fields) ||
         rng.chance(1, 3)) {
    switch (rng.next_below(6)) {
      case 0: m.in_port(static_cast<PortId>(1 + rng.next_below(4))); break;
      case 1:
        m.ip_proto(rng.chance(1, 2) ? pkt::kIpProtoTcp : pkt::kIpProtoUdp);
        break;
      case 2: m.ip_src(draw_ip(rng), draw_plen(rng)); break;
      case 3: m.ip_dst(draw_ip(rng), draw_plen(rng)); break;
      case 4:
        m.l4_dst(static_cast<std::uint16_t>(rng.chance(1, 2) ? 80 : 443));
        break;
      default: m.eth_type(pkt::kEtherTypeIpv4); break;
    }
  }
  return m;
}

FlowMod draw_mod(Rng& rng) {
  FlowMod mod;
  const std::uint64_t op = rng.next_below(8);
  mod.command = op < 4   ? FlowModCommand::kAdd
                : op < 5 ? FlowModCommand::kModify
                : op < 6 ? FlowModCommand::kModifyStrict
                : op < 7 ? FlowModCommand::kDelete
                         : FlowModCommand::kDeleteStrict;
  mod.priority = static_cast<std::uint16_t>(10 + 10 * rng.next_below(4));
  mod.match = draw_match(rng, 1);
  mod.actions = {Action::output(static_cast<PortId>(1 + rng.next_below(4)))};
  return mod;
}

pkt::FlowKey draw_key(Rng& rng) {
  pkt::FlowKey key;
  key.in_port = static_cast<PortId>(1 + rng.next_below(4));
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = rng.chance(1, 2) ? pkt::kIpProtoTcp : pkt::kIpProtoUdp;
  key.src_ip = draw_ip(rng);
  key.dst_ip = draw_ip(rng);
  key.src_port = static_cast<std::uint16_t>(1000 + rng.next_below(4));
  key.dst_port = static_cast<std::uint16_t>(rng.chance(1, 2) ? 80 : 443);
  return key;
}

/// The slow path's re-lookup, field by field: the winner and the fields
/// of every rule examined up to it.
MegaflowCache::Resolution resolve(const FlowTable& table,
                                  const pkt::FlowKey& key) {
  MegaflowCache::Resolution res;
  for (const FlowEntry& entry : table.entries()) {
    unite(res.unwildcarded, entry.match);
    if (entry.match.matches(key)) {
      res.found = true;
      res.rule = entry.id;
      break;
    }
  }
  return res;
}

using Words = std::array<std::uint64_t, 3>;
using Entry = MegaflowCache::EntryView;

Words words_of(const pkt::FlowKey& key) { return openflow::pack(key).words; }

/// The reference drain: a scan of every entry, subtable by subtable, in
/// slot order. A suspect is re-resolved (its key appended to
/// `suspects`); it is repaired when the re-lookup still fits its mask,
/// else evicted by moving the subtable's last slot into its place,
/// which the scan examines next. Returns the layout the scan leaves.
template <typename IsSuspect>
std::vector<Entry> scan_drain(const FlowTable& table,
                              const std::vector<Entry>& before,
                              IsSuspect&& is_suspect,
                              std::vector<Words>& suspects) {
  std::vector<Entry> layout;
  for (std::size_t first = 0; first < before.size();) {
    std::size_t end = first;
    while (end < before.size() && before[end].mask == before[first].mask) {
      ++end;
    }
    std::vector<Entry> slots(before.begin() + first, before.begin() + end);
    for (std::size_t i = 0; i < slots.size();) {
      if (!is_suspect(slots[i])) {
        ++i;
        continue;
      }
      suspects.push_back(words_of(slots[i].key));
      const MegaflowCache::Resolution res = resolve(table, slots[i].key);
      if (res.found && subsumes(slots[i].mask, res.unwildcarded)) {
        slots[i].rule = res.rule;
        ++i;
        continue;
      }
      slots[i] = slots.back();
      slots.pop_back();
    }
    layout.insert(layout.end(), slots.begin(), slots.end());
    first = end;
  }
  return layout;
}

/// A table whose catch-all keeps a winner for every key, and which
/// records the change events it emits.
struct ChurnTable {
  FlowTable table;
  std::vector<TableChangeEvent> events;
  std::uint64_t token = 0;

  ChurnTable() {
    FlowMod catch_all;
    catch_all.command = FlowModCommand::kAdd;
    catch_all.actions = {Action::output(1)};
    EXPECT_TRUE(table.apply(catch_all).is_ok());
    token = table.subscribe(
        [this](const TableChangeEvent& event) { events.push_back(event); });
  }
  ~ChurnTable() { table.unsubscribe(token); }

  /// A burst of `n` random FlowMods; no-ops emit no event.
  void churn(Rng& rng, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) (void)table.apply(draw_mod(rng));
  }
};

class RevalIndexTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RevalIndexTest, MegaflowDrainsReCheckExactlyTheScanSuspects) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  ChurnTable churn;
  FlowTable& table = churn.table;
  MegaflowCache cache(MegaflowCache::Config{.max_entries = kMaxEntries});
  std::vector<Words> resolved;  // keys the drain re-checked
  cache.set_revalidation_hooks(
      [&](const pkt::FlowKey& key) {
        resolved.push_back(words_of(key));
        return resolve(table, key);
      },
      nullptr, nullptr);
  const std::uint64_t token = table.subscribe(
      [&cache](const TableChangeEvent& event) { cache.on_table_change(event); });

  std::vector<pkt::FlowKey> pool;
  for (std::size_t i = 0; i < kKeyPool; ++i) pool.push_back(draw_key(rng));
  std::uint64_t held = 0;
  std::uint64_t drains = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " round " << round);
    // FlowMods first: a burst, now and then one past the queue limit
    // (the overflow flush), drained at the top of the next step.
    const bool overflow = rng.chance(1, 50);
    churn.churn(rng, overflow ? 2 * MegaflowCache::kRevalidatorQueueLimit
                              : static_cast<std::uint32_t>(rng.next_below(6)));

    // The reference: every live entry, tested field by field.
    std::vector<RuleId> removed;
    std::vector<const Match*> adds;
    for (const TableChangeEvent& event : churn.events) {
      if (event.command == FlowModCommand::kAdd) {
        adds.push_back(&event.match);
      } else if (event.command == FlowModCommand::kDelete ||
                 event.command == FlowModCommand::kDeleteStrict) {
        removed.insert(removed.end(), event.removed.begin(),
                       event.removed.end());
      }
    }
    std::vector<Words> expected;
    const std::vector<Entry> layout = scan_drain(
        table, cache.entries(),
        [&](const Entry& e) {
          return std::find(removed.begin(), removed.end(), e.rule) !=
                     removed.end() ||
                 std::any_of(adds.begin(), adds.end(), [&e](const Match* m) {
                   return may_intersect(e.mask, e.key, *m);
                 });
        },
        expected);
    if (!churn.events.empty()) {
      held += cache.entry_count();
      ++drains;
    }
    resolved.clear();
    const MegaflowCache::RevalidateReport report = cache.revalidate();
    churn.events.clear();
    if (report.flushed) {
      ASSERT_TRUE(resolved.empty());
      ASSERT_EQ(cache.entry_count(), 0u);
    } else {
      std::sort(expected.begin(), expected.end());
      std::sort(resolved.begin(), resolved.end());
      ASSERT_EQ(resolved, expected) << "the drain re-checked other entries "
                                       "than the brute-force pass finds";
      ASSERT_EQ(report.revalidated, expected.size());
      ASSERT_TRUE(cache.entries() == layout)
          << "the drain left another slot layout than the scan";
    }

    // Traffic: misses take the slow path and install, as the
    // classifier's upcall does.
    const std::uint64_t version = table.version();
    for (int n = 0; n < 24; ++n) {
      const pkt::FlowKey& key = pool[rng.next_below(pool.size())];
      ProbeTally tally;
      if (cache.lookup(key, version, tally) != kRuleNone) continue;
      const MegaflowCache::Resolution res = resolve(table, key);
      if (res.found) cache.insert(key, res.unwildcarded, res.rule, version);
    }
    // Overwrites: re-install a cached entry's key under its current
    // winner (the rule may or may not change).
    for (const Entry& e : cache.entries()) {
      if (!rng.chance(1, 16)) continue;
      const MegaflowCache::Resolution res = resolve(table, e.key);
      if (res.found && subsumes(e.mask, res.unwildcarded)) {
        cache.insert(e.key, e.mask, res.rule, version);
      }
    }
    // Stale evictions: a lookup at a version no event explains evicts
    // the entry it finds.
    if (rng.chance(1, 8)) {
      ProbeTally tally;
      (void)cache.lookup(pool[rng.next_below(pool.size())], version + 1,
                         tally);
    }
    // A key leaves the pool and a new one arrives.
    pool[rng.next_below(pool.size())] = draw_key(rng);
  }
  table.unsubscribe(token);

  const MegaflowStats& stats = cache.stats();
  EXPECT_GT(stats.revalidated_kept, 0u);
  EXPECT_GT(stats.revalidated_evicted, 0u);
  EXPECT_GT(stats.capacity_evictions, 0u);
  EXPECT_GT(stats.stale_evictions, 0u);
  EXPECT_GT(stats.overwrites, 0u);
  EXPECT_GT(stats.subtables_pruned, 0u);
  EXPECT_GT(stats.queue_overflows, 0u);
  EXPECT_GT(stats.reval_index_probes, 0u) << "no drain used an index";
  EXPECT_LT(stats.reval_entries_scanned, held)
      << "over " << drains << " drains";
}

TEST_P(RevalIndexTest, ExactMatchDrainsReCheckExactlyTheScanSuspects) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x656d63ULL);
  ChurnTable churn;
  FlowTable& table = churn.table;
  flowtable::ExactMatchCache emc(kEmcSlots);

  // The slots the cache should hold, by position. Every slot is filled
  // with a generation no rule has, so a slot the drain re-resolved is the
  // only kind a lookup can hit afterwards.
  std::array<pkt::FlowKey, kEmcSlots> model{};
  std::array<bool, kEmcSlots> held{};
  const auto fill = [&](const pkt::FlowKey& key) {
    const std::uint32_t hash = pkt::flow_key_hash(key);
    emc.insert(key, hash, 1, kPoison);
    model[hash % kEmcSlots] = key;
    held[hash % kEmcSlots] = true;
  };
  std::vector<pkt::FlowKey> pool;
  for (std::size_t i = 0; i < kKeyPool; ++i) pool.push_back(draw_key(rng));
  std::uint64_t occupied = 0;
  std::uint64_t examined = 0;
  std::uint64_t probes = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " round " << round);
    if (rng.chance(1, 32)) {
      emc.clear();
      held.fill(false);
    }
    // Refill what is held (a lookup below drops the slots it rejects)
    // and overwrite some slots with new keys.
    for (std::size_t s = 0; s < kEmcSlots; ++s) {
      if (held[s]) fill(model[s]);
    }
    for (int n = 0; n < 24; ++n) fill(pool[rng.next_below(pool.size())]);

    churn.churn(rng, static_cast<std::uint32_t>(1 + rng.next_below(5)));
    if (churn.events.empty()) continue;
    std::array<bool, kEmcSlots> suspect{};
    std::uint32_t expected = 0;
    for (std::size_t s = 0; s < kEmcSlots; ++s) {
      if (!held[s]) continue;
      ++occupied;
      suspect[s] = std::any_of(
          churn.events.begin(), churn.events.end(),
          [&](const TableChangeEvent& e) { return e.match.matches(model[s]); });
      expected += suspect[s] ? 1 : 0;
    }
    const auto counts = emc.revalidate_batch(churn.events, table);
    churn.events.clear();
    examined += counts.scanned;
    probes += counts.index_probes;
    ASSERT_EQ(counts.repaired, expected);
    ASSERT_EQ(counts.evicted, 0u) << "the catch-all matches every key";
    for (std::size_t s = 0; s < kEmcSlots; ++s) {
      if (!held[s]) continue;
      const FlowEntry* hit =
          emc.lookup(model[s], pkt::flow_key_hash(model[s]), table);
      ASSERT_EQ(hit != nullptr, suspect[s])
          << "slot " << s << (suspect[s] ? ": a suspect was not re-resolved"
                                         : ": a clean slot was re-resolved");
      if (hit != nullptr) {
        EXPECT_EQ(hit, table.lookup(model[s]));
      }
    }
    pool[rng.next_below(pool.size())] = draw_key(rng);
  }
  EXPECT_GT(probes, 0u) << "no drain used an index";
  EXPECT_LT(examined, occupied);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RevalIndexTest,
    ::testing::Values(0x1d01, 0x1d02, 0x1d03, 0x1d04, 0x1d05, 0x1d06, 0x1d07,
                      0x1d08, 0x1d09, 0x1d0a, 0x1d0b, 0x1d0c, 0x1d0d, 0x1d0e,
                      0x1d0f, 0x1d10, 0x1d11, 0x1d12, 0x1d13, 0x1d14),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      char name[32];
      std::snprintf(name, sizeof(name), "seed_%llx",
                    static_cast<unsigned long long>(info.param));
      return std::string(name);
    });

}  // namespace
}  // namespace hw::classifier
