#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "classifier/dp_classifier.h"
#include "classifier/mask.h"
#include "classifier/megaflow.h"
#include "common/rng.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "pkt/headers.h"

namespace hw::classifier {
namespace {

using flowtable::FlowEntry;
using flowtable::FlowTable;
using flowtable::TableChangeEvent;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::Match;

pkt::FlowKey make_key(PortId in_port, std::uint32_t src_ip,
                      std::uint32_t dst_ip, std::uint16_t dst_port,
                      std::uint8_t proto = pkt::kIpProtoUdp) {
  pkt::FlowKey key;
  key.in_port = in_port;
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = proto;
  key.src_ip = src_ip;
  key.dst_ip = dst_ip;
  key.src_port = 1234;
  key.dst_port = dst_port;
  return key;
}

FlowMod add_rule(Match match, std::uint16_t priority, PortId out) {
  FlowMod mod;
  mod.command = FlowModCommand::kAdd;
  mod.match = match;
  mod.priority = priority;
  mod.actions = {Action::output(out)};
  return mod;
}

/// A synthetic change event, as FlowTable::commit would emit.
TableChangeEvent change_event(FlowModCommand command, Match match,
                              std::uint16_t priority, std::uint64_t version) {
  TableChangeEvent event;
  event.command = command;
  event.match = match;
  event.priority = priority;
  event.version = version;
  return event;
}

// ------------------------------------------------------------------ masks

TEST(MaskSpecTest, MaskOfMirrorsConstrainedFields) {
  Match match;
  match.in_port(3).ip_dst(0x0a000000, 24).l4_dst(80);
  const MaskSpec mask = mask_of(match);
  EXPECT_EQ(mask.fields, match.fields());
  EXPECT_EQ(mask.ip_dst_plen, 24);
  EXPECT_EQ(mask.ip_src_plen, 0);
}

TEST(MaskSpecTest, UniteTakesFieldUnionAndMaxPrefix) {
  MaskSpec mask;
  Match a;
  a.ip_dst(0x0a000000, 16);
  Match b;
  b.ip_dst(0x0a000000, 24).l4_dst(80);
  unite(mask, a);
  EXPECT_EQ(mask.ip_dst_plen, 16);
  unite(mask, b);
  EXPECT_EQ(mask.ip_dst_plen, 24);  // more specific prefix wins
  EXPECT_TRUE(mask.fields & openflow::kMatchIpDst);
  EXPECT_TRUE(mask.fields & openflow::kMatchL4Dst);
  EXPECT_FALSE(mask.fields & openflow::kMatchInPort);
}

TEST(MaskSpecTest, ApplyZeroesUnconstrainedAndTruncatesPrefix) {
  Match match;
  match.in_port(7).ip_dst(0x0a0b0000, 16);
  const MaskSpec mask = mask_of(match);
  const pkt::FlowKey key = make_key(7, 0xc0a80101, 0x0a0bccdd, 443);
  const pkt::FlowKey masked = apply(mask, key);
  EXPECT_EQ(masked.in_port, 7);
  EXPECT_EQ(masked.dst_ip, 0x0a0b0000u);  // low 16 bits masked off
  EXPECT_EQ(masked.src_ip, 0u);           // not in the mask
  EXPECT_EQ(masked.dst_port, 0u);
  EXPECT_EQ(masked.ether_type, 0u);
  // Keys equal under the mask project identically.
  const pkt::FlowKey other = make_key(7, 0x01020304, 0x0a0b0000, 80);
  EXPECT_EQ(apply(mask, other), masked);
}

TEST(MaskSpecTest, MayIntersectComparesOnlyCommonFields) {
  MaskSpec mask{.fields = openflow::kMatchInPort};
  const pkt::FlowKey covered = apply(mask, make_key(3, 1, 2, 80));
  Match same_port;
  same_port.in_port(3).l4_dst(443);  // l4 is free in the megaflow
  EXPECT_TRUE(may_intersect(mask, covered, same_port));
  Match other_port;
  other_port.in_port(5);
  EXPECT_FALSE(may_intersect(mask, covered, other_port));
  Match catch_all;  // constrains nothing: intersects everything
  EXPECT_TRUE(may_intersect(mask, covered, catch_all));
}

TEST(MaskSpecTest, MayIntersectComparesPrefixOverlap) {
  MaskSpec mask{.fields = openflow::kMatchIpDst, .ip_dst_plen = 24};
  const pkt::FlowKey covered = apply(mask, make_key(1, 0, 0x0a0b0c0d, 80));
  Match inside;
  inside.ip_dst(0x0a0b0000, 16);  // /16 containing the entry's /24
  EXPECT_TRUE(may_intersect(mask, covered, inside));
  Match outside;
  outside.ip_dst(0x0a0c0000, 16);
  EXPECT_FALSE(may_intersect(mask, covered, outside));
  Match deeper;
  deeper.ip_dst(0x0a0b0cffu, 32);  // deeper bits are free in the entry
  EXPECT_TRUE(may_intersect(mask, covered, deeper));
}

TEST(MaskSpecTest, SubsumesRequiresFieldAndPrefixCoverage) {
  MaskSpec outer{.fields = openflow::kMatchInPort | openflow::kMatchIpDst,
                 .ip_dst_plen = 24};
  MaskSpec narrower{.fields = openflow::kMatchIpDst, .ip_dst_plen = 16};
  EXPECT_TRUE(subsumes(outer, narrower));
  MaskSpec deeper{.fields = openflow::kMatchIpDst, .ip_dst_plen = 32};
  EXPECT_FALSE(subsumes(outer, deeper));
  MaskSpec extra_field{.fields = openflow::kMatchL4Dst};
  EXPECT_FALSE(subsumes(outer, extra_field));
  EXPECT_TRUE(subsumes(outer, MaskSpec{}));  // the empty mask always fits
}

// --------------------------------------------------------- megaflow cache

TEST(MegaflowCacheTest, OneSubtablePerDistinctMask) {
  MegaflowCache cache;
  MaskSpec port_only{.fields = openflow::kMatchInPort};
  MaskSpec port_and_dst{
      .fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  cache.insert(make_key(1, 1, 2, 80), port_only, 10, 1);
  cache.insert(make_key(2, 1, 2, 80), port_only, 11, 1);
  cache.insert(make_key(3, 1, 2, 80), port_and_dst, 12, 1);
  EXPECT_EQ(cache.subtable_count(), 2u);
  EXPECT_EQ(cache.entry_count(), 3u);

  ProbeTally tally;
  // Any packet from port 2 matches the port-only megaflow.
  EXPECT_EQ(cache.lookup(make_key(2, 99, 98, 4242), 1, tally), 11u);
  EXPECT_EQ(cache.lookup(make_key(3, 1, 2, 80), 1, tally), 12u);
  ProbeTally miss;
  EXPECT_EQ(cache.lookup(make_key(4, 1, 2, 80), 1, miss), kRuleNone);
  EXPECT_EQ(miss.probes, 2u);  // a miss probes every subtable
}

TEST(MegaflowCacheTest, StaleVersionIsNeverServed) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  cache.insert(make_key(1, 0, 0, 0), mask, 7, /*table_version=*/5);
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 5, tally), 7u);
  // Table moved on without an explaining change event: the entry must be
  // treated as a miss and evicted.
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 6, tally), kRuleNone);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
}

TEST(MegaflowCacheTest, ChangeEventRevalidatesPreciselyOnOwnersNextTouch) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  for (PortId p = 1; p <= 8; ++p) {
    cache.insert(make_key(p, 0, 0, 0), mask, p, 1);
  }
  EXPECT_EQ(cache.entry_count(), 8u);
  // The notification may come from a control thread, so it only queues
  // the event; the owner's next lookup applies it. Without a resolver
  // the one intersecting entry is evicted — the other seven survive the
  // FlowMod (the whole point of the revalidator).
  Match port3;
  port3.in_port(3);
  cache.on_table_change(
      change_event(FlowModCommand::kAdd, port3, 99, /*version=*/2));
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(3, 0, 0, 0), 2, tally), kRuleNone);
  EXPECT_EQ(cache.entry_count(), 7u);
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 2, tally), 1u);
  EXPECT_EQ(cache.stats().revalidations, 1u);
  EXPECT_EQ(cache.stats().revalidated_evicted, 1u);
  EXPECT_EQ(cache.stats().flushes, 0u);
}

TEST(MegaflowCacheTest, DeleteEventOnlySuspectsRemovedRules) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  cache.insert(make_key(1, 0, 0, 0), mask, 10, 1);
  cache.insert(make_key(2, 0, 0, 0), mask, 11, 1);
  TableChangeEvent event =
      change_event(FlowModCommand::kDelete, Match{}, 0, 2);
  event.removed = {11};  // the match is wildcard, but only rule 11 died
  cache.on_table_change(event);
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 2, tally), 10u);
  EXPECT_EQ(cache.lookup(make_key(2, 0, 0, 0), 2, tally), kRuleNone);
  EXPECT_EQ(cache.stats().revalidations, 1u);
}

TEST(MegaflowCacheTest, QueueOverflowFallsBackToFullFlush) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  for (PortId p = 1; p <= 4; ++p) {
    cache.insert(make_key(p, 0, 0, 0), mask, p, 1);
  }
  Match far_port;
  far_port.in_port(99);  // intersects nothing cached
  // One event more than the queue holds.
  const std::uint64_t last = 1 + MegaflowCache::kRevalidatorQueueLimit + 1;
  for (std::uint64_t v = 2; v <= last; ++v) {
    cache.on_table_change(
        change_event(FlowModCommand::kAdd, far_port, 1, v));
  }
  ProbeTally tally;
  // Precise tracking was abandoned: everything is gone, counted as an
  // overflow-driven flush, and the cache is synced to the last version.
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), last, tally), kRuleNone);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().queue_overflows, 1u);
  EXPECT_EQ(cache.stats().flushes, 1u);
}

TEST(MegaflowCacheTest, CoalescedDrainRunsOneSuspectScanPerBurst) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort | openflow::kMatchIpDst,
                .ip_dst_plen = 32};
  for (PortId p = 1; p <= 8; ++p) {
    cache.insert(make_key(p, 0, 0x0a000000u + p, 0), mask, p, 1);
  }
  // A burst of five FlowMods lands before the owner touches the cache.
  // The drain must fold them into ONE pass: 8 entries examined, not 40 —
  // and the identical prefix matches merge into one plan mask. The
  // subtable has no revalidation index for the merged term's shape yet,
  // so this first drain examines every entry (and builds one); the
  // prefix covers no cached destination, so nothing is suspect and
  // every entry survives.
  Match other_subnet;
  other_subnet.ip_dst(0x0b000000u, 16);
  for (std::uint64_t v = 2; v <= 6; ++v) {
    cache.on_table_change(
        change_event(FlowModCommand::kAdd, other_subnet, 1, v));
  }
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0x0a000001u, 0), 6, tally), 1u);
  EXPECT_EQ(cache.stats().reval_batches, 1u);
  EXPECT_EQ(cache.stats().reval_entries_scanned, 8u);
  EXPECT_EQ(cache.stats().reval_coalesced_events, 4u);
  EXPECT_EQ(cache.stats().revalidations, 0u);
  // The merged plan has ONE ADD term; every entry pays exactly one
  // intersect test on top of its membership probe.
  EXPECT_EQ(cache.stats().reval_term_tests, 8u);
  EXPECT_EQ(cache.stats().reval_index_probes, 0u);
  EXPECT_EQ(cache.stats().subtables_skipped, 0u);
  EXPECT_EQ(cache.entry_count(), 8u);
}

TEST(MegaflowCacheTest, OverlappingAddMasksResolveEachSuspectOnce) {
  MegaflowCache cache;
  int resolver_calls = 0;
  cache.set_revalidation_hooks(
      [&resolver_calls](const pkt::FlowKey&) {
        ++resolver_calls;
        MegaflowCache::Resolution res;
        res.found = true;
        res.rule = 42;
        res.unwildcarded = MaskSpec{.fields = openflow::kMatchInPort};
        return res;
      },
      nullptr, nullptr);
  MaskSpec mask{.fields = openflow::kMatchInPort};
  cache.insert(make_key(3, 0, 0, 0), mask, 7, 1);
  cache.insert(make_key(4, 0, 0, 0), mask, 8, 1);
  // Two overlapping ADDs touch port 3: a broad port-3 match and a
  // narrower port-3+l4 match it contains. The plan merges them (the
  // narrow match cannot suspect anything the broad one does not), so
  // the suspect entry is re-resolved exactly once.
  Match broad;
  broad.in_port(3);
  Match narrow;
  narrow.in_port(3).l4_dst(80);
  cache.on_table_change(change_event(FlowModCommand::kAdd, broad, 50, 2));
  cache.on_table_change(change_event(FlowModCommand::kAdd, narrow, 60, 3));
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(3, 0, 0, 0), 3, tally), 42u);
  EXPECT_EQ(resolver_calls, 1);
  EXPECT_EQ(cache.stats().revalidations, 1u);
  EXPECT_EQ(cache.stats().reval_batches, 1u);
  EXPECT_EQ(cache.stats().reval_entries_scanned, 2u);
  EXPECT_EQ(cache.stats().reval_coalesced_events, 1u);
  // Port 4's entry was examined but never suspected — and still serves.
  EXPECT_EQ(cache.lookup(make_key(4, 0, 0, 0), 3, tally), 8u);
  EXPECT_EQ(cache.stats().revalidated_kept, 1u);
}

TEST(MegaflowCacheTest, CapacityEvictionKeepsBound) {
  MegaflowCache cache(MegaflowCache::Config{.max_entries = 4});
  MaskSpec mask{.fields = openflow::kMatchInPort};
  for (PortId p = 1; p <= 10; ++p) {
    cache.insert(make_key(p, 0, 0, 0), mask, p, 1);
  }
  EXPECT_LE(cache.entry_count(), 4u);
  EXPECT_EQ(cache.stats().capacity_evictions, 6u);
}

/// CLOCK ORACLE. One subtable holds its entries in insertion order (the
/// slot order the hand walks), and the hand starts at the first slot. A
/// hit sets an entry's `referenced` bit; the hand clears it in passing
/// and evicts the next entry without one, so a recently hit entry gets a
/// second chance, and only one.
TEST(MegaflowCacheTest, CapacityEvictionGivesRecentlyHitEntriesASecondChance) {
  MegaflowCache cache(MegaflowCache::Config{.max_entries = 4});
  const MaskSpec mask{.fields = openflow::kMatchInPort};
  const auto key = [](PortId port) { return make_key(port, 0, 0, 0); };
  ProbeTally tally;
  // Slots A B C D (ports 1-4); the hand points at A.
  for (PortId p = 1; p <= 4; ++p) cache.insert(key(p), mask, p, 1);
  ASSERT_EQ(cache.lookup(key(1), 1, tally), 1u);  // A referenced

  // E overflows the cap: the hand clears A's bit and evicts B. Slots
  // A E C D; the hand points at C.
  cache.insert(key(5), mask, 5, 1);
  EXPECT_EQ(cache.stats().capacity_evictions, 1u);
  EXPECT_EQ(cache.entry_count(), 4u);
  EXPECT_EQ(cache.lookup(key(2), 1, tally), kRuleNone)
      << "the hit entry was evicted instead of another";

  // Every entry but A is hit again; A's bit is still clear, so F's
  // insert passes C and D and evicts A.
  for (const PortId p : {3, 4, 5}) {
    ASSERT_EQ(cache.lookup(key(p), 1, tally), static_cast<RuleId>(p));
  }
  cache.insert(key(6), mask, 6, 1);
  EXPECT_EQ(cache.stats().capacity_evictions, 2u);
  EXPECT_EQ(cache.lookup(key(1), 1, tally), kRuleNone)
      << "the hand passed A without a new hit, yet A survived";
  for (const PortId p : {3, 4, 5, 6}) {
    EXPECT_EQ(cache.lookup(key(p), 1, tally), static_cast<RuleId>(p)) << p;
  }
}

TEST(MegaflowCacheTest, OverwriteOfExistingKeyCountedSeparately) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  cache.insert(make_key(1, 0, 0, 0), mask, 10, 1);
  // Same masked key (src/dst differences are wildcarded away): this is a
  // re-install, not a fresh megaflow — the tier telemetry must not count
  // it as population growth.
  cache.insert(make_key(1, 9, 9, 9), mask, 12, 1);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().overwrites, 1u);
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 1, tally), 12u);
}

TEST(MegaflowCacheTest, EmptySubtablesArePrunedAndStopCostingProbes) {
  MegaflowCache cache;
  MaskSpec port_only{.fields = openflow::kMatchInPort};
  MaskSpec port_and_dst{
      .fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  cache.insert(make_key(1, 0, 0, 80), port_and_dst, 10, /*version=*/1);
  cache.insert(make_key(2, 0, 0, 0), port_only, 11, 1);
  EXPECT_EQ(cache.subtable_count(), 2u);
  ProbeTally before;
  EXPECT_EQ(cache.lookup(make_key(9, 0, 0, 0), 1, before), kRuleNone);
  EXPECT_EQ(before.probes, 2u);

  // Stale-evict the only entry of the port+dst subtable (version skew);
  // the emptied subtable must be pruned, not probed forever.
  ProbeTally stale;
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 80), 2, stale), kRuleNone);
  EXPECT_EQ(cache.subtable_count(), 1u);
  EXPECT_GE(cache.stats().subtables_pruned, 1u);
  ProbeTally after;
  (void)cache.lookup(make_key(9, 0, 0, 0), 2, after);
  EXPECT_EQ(after.probes, 1u);  // shrank: the empty subtable no longer charges
}

TEST(MegaflowCacheTest, CapacityEvictionPrunesEmptiedSubtable) {
  MegaflowCache cache(MegaflowCache::Config{.max_entries = 1});
  MaskSpec port_only{.fields = openflow::kMatchInPort};
  MaskSpec port_and_dst{
      .fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  cache.insert(make_key(1, 0, 0, 0), port_only, 10, 1);
  cache.insert(make_key(2, 0, 0, 80), port_and_dst, 11, 1);
  // The port-only subtable's lone entry was evicted for capacity: the
  // subtable goes with it.
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.subtable_count(), 1u);
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(2, 0, 0, 80), 1, tally), 11u);
  EXPECT_EQ(tally.probes, 1u);
}

TEST(MegaflowCacheTest, SignatureScanCountsHitsAndFalsePositives) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  for (PortId p = 1; p <= 8; ++p) {
    cache.insert(make_key(p, 0, 0, 0), mask, p, 1);
  }
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(5, 7, 7, 7), 1, tally), 5u);
  // The hit was confirmed through the signature prefilter, and the only
  // full compare performed was the confirming one (16-bit fingerprints
  // over 8 entries collide with probability ~ 8/65536).
  EXPECT_EQ(cache.stats().sig_hits, 1u);
  EXPECT_EQ(cache.stats().sig_false_positives, 0u);
}

/// REGRESSION (masked-key signatures): the per-entry signature must be
/// the fingerprint of the *masked* key — mask applied before hashing. An
/// entry repaired in place by the revalidator keeps its stored (masked)
/// key, so its signature must keep matching the projection every later
/// lookup computes; a signature derived from the raw inserting key would
/// go permanently stale here and the repaired entry would never be found
/// again (a silent cache leak, not a correctness bug — which is exactly
/// why it needs a dedicated test).
TEST(MegaflowCacheTest, RepairInPlaceKeepsSignatureValid) {
  MegaflowCache cache;
  // The mask strips the low 16 dst bits and every src bit: the raw key
  // and its masked projection hash differently.
  MaskSpec mask{.fields = openflow::kMatchInPort | openflow::kMatchIpDst,
                .ip_dst_plen = 16};
  cache.set_revalidation_hooks(
      [](const pkt::FlowKey&) {
        MegaflowCache::Resolution res;
        res.found = true;
        res.rule = 42;
        res.unwildcarded = MaskSpec{.fields = openflow::kMatchInPort};
        return res;
      },
      nullptr, nullptr);
  const pkt::FlowKey raw = make_key(3, 0xc0a80101, 0x0a0bccdd, 443);
  ASSERT_NE(raw, apply(mask, raw));  // projection really differs
  cache.insert(raw, mask, 7, /*table_version=*/1);

  // An intersecting ADD marks the entry suspect; the resolver's fresh
  // unwildcard set fits the subtable mask, so it is repaired in place.
  Match port3;
  port3.in_port(3);
  cache.on_table_change(
      change_event(FlowModCommand::kAdd, port3, 50, /*version=*/2));

  ProbeTally tally;
  EXPECT_EQ(cache.lookup(raw, 2, tally), 42u);
  EXPECT_EQ(cache.stats().revalidated_kept, 1u);
  EXPECT_EQ(cache.stats().sig_hits, 1u);
  EXPECT_EQ(cache.stats().sig_false_positives, 0u);
  // Any other key with the same masked projection finds it too.
  EXPECT_EQ(cache.lookup(make_key(3, 1, 0x0a0b0000, 80), 2, tally), 42u);
}

/// CUCKOO INDEX ORACLE. One mask, a reference map of the masked keys the
/// cache should hold, and batches of random steps: fresh inserts,
/// overwrites, stale evictions (a lookup at a newer table version),
/// revalidation evictions (a DELETE of live rule ids, no resolver) and
/// capacity evictions (at `max_entries`). After every batch, one batched
/// lookup of every key the reference holds must return its rule, and
/// keys the cache cannot hold must miss. Capacity victims are the
/// cache's choice, so the reference learns them as misses — but their
/// count must match what the cache reported evicting: it may lose no
/// entry it did not evict. Populations cross bucket doublings up to
/// `max_entries`, and no probe reads more than two signature blocks at
/// any of them.
class MegaflowIndexTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MegaflowIndexTest, EveryLiveKeyHitsAndEveryAbsentKeyMisses) {
  const std::size_t target = GetParam();
  MegaflowCache cache(MegaflowCache::Config{.max_entries = target});
  const MaskSpec mask{.fields = openflow::kMatchInPort |
                                openflow::kMatchIpDst |
                                openflow::kMatchL4Dst,
                      .ip_dst_plen = 32};
  Rng rng(0x1dc0 + target);
  // Distinct ids give distinct masked keys; the source fields are random
  // and wildcarded away.
  const auto raw_key = [&rng](std::uint32_t id) {
    return make_key(static_cast<PortId>(1 + (id & 3)),
                    static_cast<std::uint32_t>(rng.next()),
                    0x0a000000u + (id >> 2), 80);
  };
  const auto masked_key = [&](std::uint32_t id) {
    return apply(mask, raw_key(id));
  };
  const auto random_rule = [&] {
    return static_cast<RuleId>(1 + rng.next_below(2 * target));
  };
  constexpr std::uint64_t kVersion = 1;

  std::unordered_map<pkt::FlowKey, RuleId> ref;
  std::vector<pkt::FlowKey> gone;   // removed keys, unless re-installed
  std::uint64_t found_missing = 0;  // capacity victims the reference learned
  std::uint32_t next_id = 0;
  std::size_t peak = 0;
  ProbeTally tally;
  const auto random_id = [&] {
    return static_cast<std::uint32_t>(rng.next_below(next_id));
  };
  const auto forget = [&](const pkt::FlowKey& key) {
    ref.erase(key);
    gone.push_back(key);
  };
  // The reference holds every key the cache holds, plus the capacity
  // victims it has not learned of yet.
  const auto check_population = [&] {
    ASSERT_LE(found_missing, cache.stats().capacity_evictions)
        << "lost entries it never evicted";
    ASSERT_EQ(ref.size() - cache.entry_count(),
              cache.stats().capacity_evictions - found_missing);
  };

  const std::size_t fresh_per_batch = std::max<std::size_t>(4, target / 16);
  for (int batch = 0;; ++batch) {
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    ASSERT_LT(batch, 64) << "never reached the cap";
    for (std::size_t n = 0; n < fresh_per_batch; ++n) {
      const std::uint32_t id = next_id++;
      const RuleId rule = random_rule();
      cache.insert(raw_key(id), mask, rule, kVersion);
      ref[masked_key(id)] = rule;
      peak = std::max(peak, cache.entry_count());
    }
    // Overwrites: re-install earlier keys under new rules. The cache's
    // insert/overwrite split says whether each one was still held.
    for (std::size_t n = 0; n < fresh_per_batch / 4 + 1; ++n) {
      const std::uint32_t id = random_id();
      const pkt::FlowKey key = masked_key(id);
      const RuleId rule = random_rule();
      const std::uint64_t overwrites = cache.stats().overwrites;
      cache.insert(raw_key(id), mask, rule, kVersion);
      if (cache.stats().overwrites > overwrites) {
        ASSERT_TRUE(ref.contains(key)) << "held a key it was never given";
      } else if (ref.contains(key)) {
        ++found_missing;  // a capacity victim, installed afresh
      }
      ref[key] = rule;
    }
    // Stale evictions: a lookup at a newer table version evicts the
    // entry it finds instead of serving it.
    for (std::size_t n = 0; n < fresh_per_batch / 16 + 1; ++n) {
      const pkt::FlowKey key = masked_key(random_id());
      const std::uint64_t stale = cache.stats().stale_evictions;
      ASSERT_EQ(cache.lookup(key, kVersion + 1, tally), kRuleNone);
      if (cache.stats().stale_evictions > stale) {
        ASSERT_TRUE(ref.contains(key)) << "evicted a key it was never given";
      } else if (ref.contains(key)) {
        ++found_missing;
      }
      if (ref.contains(key)) forget(key);
    }
    // Revalidation evictions: DELETE the rules of some live keys; with
    // no resolver, every entry carrying one of them is evicted.
    TableChangeEvent del =
        change_event(FlowModCommand::kDeleteStrict, Match{}, 1, kVersion);
    for (std::size_t n = 0; n < fresh_per_batch / 16 + 1; ++n) {
      const auto it = ref.find(masked_key(random_id()));
      if (it != ref.end()) del.removed.push_back(it->second);
    }
    std::vector<pkt::FlowKey> deleted;
    for (const auto& [key, rule] : ref) {
      if (std::find(del.removed.begin(), del.removed.end(), rule) !=
          del.removed.end()) {
        deleted.push_back(key);
      }
    }
    const std::uint64_t reval = cache.stats().revalidated_evicted;
    cache.on_table_change(del);
    (void)cache.revalidate();
    const std::uint64_t evicted = cache.stats().revalidated_evicted - reval;
    ASSERT_LE(evicted, deleted.size());
    found_missing += deleted.size() - evicted;
    for (const pkt::FlowKey& key : deleted) forget(key);
    check_population();

    // One batch over every key the reference holds...
    std::vector<pkt::FlowKey> keys;
    for (const auto& [key, rule] : ref) keys.push_back(key);
    std::vector<RuleId> out(keys.size(), kRuleNone);
    cache.lookup_batch(keys, kVersion, out, tally);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (out[i] == ref.at(keys[i])) continue;
      ASSERT_EQ(out[i], kRuleNone) << "served a wrong rule";
      ++found_missing;
      forget(keys[i]);
    }
    check_population();
    // ...and one over keys it cannot hold: ids never installed, and the
    // latest removed keys.
    std::vector<pkt::FlowKey> absent;
    for (std::uint32_t id = next_id; id < next_id + 32; ++id) {
      absent.push_back(masked_key(id));
    }
    for (std::size_t i = gone.size() > 256 ? gone.size() - 256 : 0;
         i < gone.size(); ++i) {
      if (!ref.contains(gone[i])) absent.push_back(gone[i]);
    }
    out.assign(absent.size(), kRuleNone);
    cache.lookup_batch(absent, kVersion, out, tally);
    for (std::size_t i = 0; i < absent.size(); ++i) {
      ASSERT_EQ(out[i], kRuleNone) << "absent key " << i << " hit";
    }
    ASSERT_LE(cache.stats().simd_blocks, 2u * tally.probes)
        << "a probe read more than two buckets";
    if (peak == target &&
        cache.stats().capacity_evictions >= fresh_per_batch) {
      break;
    }
  }
  EXPECT_EQ(cache.stats().simd_blocks, tally.sig_blocks);
  EXPECT_GT(cache.stats().overwrites, 0u);
  EXPECT_GT(cache.stats().stale_evictions, 0u);
  EXPECT_GT(cache.stats().revalidated_evicted, 0u);
  EXPECT_EQ(cache.stats().flushes, 0u);
}

// 37 entries: one bucket, then two, then four, the size of the small
// subtables the paper-figure chains build. 65,536: every doubling up to
// 8,192 buckets.
INSTANTIATE_TEST_SUITE_P(Populations, MegaflowIndexTest,
                         ::testing::Values(37, 65'536));

/// Keys built to share one full flow_key_hash: under this mask the hash
/// XORs dst_port << 16 onto dst_ip's upper half, so flipping both by the
/// same k leaves it unchanged. No table size separates them, and 48 of
/// them are more than their two buckets' 32 lanes hold: the rest must
/// live in the overflow stash, while ordinary keys grow the table around
/// them (each doubling re-places the stash). Every held key must hit,
/// absent keys with the shared hash must miss, and erasing must keep
/// every slot it moves reachable, stashed slots included.
TEST(MegaflowCacheTest, KeysSharingOneHashOverflowIntoTheStash) {
  MegaflowCache cache;
  const MaskSpec mask{.fields = openflow::kMatchInPort |
                                openflow::kMatchIpDst |
                                openflow::kMatchL4Dst,
                      .ip_dst_plen = 32};
  constexpr std::uint16_t kColliding = 48;
  constexpr std::uint32_t kOrdinary = 300;
  const auto colliding = [](std::uint16_t k) {
    return make_key(1, 0, 0x0a000000u ^ (std::uint32_t{k} << 16), k);
  };
  const auto ordinary = [](std::uint32_t i) {
    return make_key(2, 0, 0x0b000000u + i, 80);
  };
  const std::uint32_t shared = pkt::flow_key_hash(apply(mask, colliding(0)));
  for (std::uint16_t k = 0; k < 2 * kColliding; ++k) {
    ASSERT_EQ(pkt::flow_key_hash(apply(mask, colliding(k))), shared)
        << "flow_key_hash no longer folds dst_port onto dst_ip: build "
           "keys with one shared hash another way";
  }
  for (std::uint32_t i = 0; i < kOrdinary; ++i) {
    if (i < kColliding) cache.insert(colliding(i), mask, 1 + i, 1);
    cache.insert(ordinary(i), mask, 1000 + i, 1);
  }
  ASSERT_EQ(cache.entry_count(), kColliding + kOrdinary);

  std::vector<bool> held(kColliding, true);
  std::uint32_t ordinary_held = kOrdinary;
  const auto expect_held = [&] {
    ProbeTally tally;
    for (std::uint16_t k = 0; k < kColliding; ++k) {
      EXPECT_EQ(cache.lookup(colliding(k), 1, tally),
                held[k] ? RuleId{1u + k} : kRuleNone)
          << "colliding key " << k;
    }
    for (std::uint16_t k = kColliding; k < 2 * kColliding; ++k) {
      EXPECT_EQ(cache.lookup(colliding(k), 1, tally), kRuleNone)
          << "absent colliding key " << k;
    }
    for (std::uint32_t i = 0; i < kOrdinary; ++i) {
      EXPECT_EQ(cache.lookup(ordinary(i), 1, tally),
                i < ordinary_held ? 1000 + i : kRuleNone)
          << "ordinary key " << i;
    }
  };
  expect_held();

  // A lookup at a newer version evicts what it finds. Once no ordinary
  // key is left, each erasure swaps the colliding key at the back of the
  // slot array into its hole, stashed ones included.
  ProbeTally tally;
  for (; ordinary_held > 0; --ordinary_held) {
    ASSERT_EQ(cache.lookup(ordinary(ordinary_held - 1), 2, tally), kRuleNone);
  }
  for (std::uint16_t k = 0; k < kColliding / 2; ++k) {
    ASSERT_EQ(cache.lookup(colliding(k), 2, tally), kRuleNone);
    held[k] = false;
  }
  EXPECT_EQ(cache.stats().stale_evictions, kOrdinary + kColliding / 2);
  expect_held();
  // Re-installed, they take the freed lanes and slots back.
  for (std::uint16_t k = 0; k < kColliding / 2; ++k) {
    cache.insert(colliding(k), mask, 1 + k, 1);
    held[k] = true;
  }
  expect_held();
  EXPECT_EQ(cache.entry_count(), kColliding);
}

TEST(MegaflowCacheTest, IndexExaminesNoEntryForAnAbsentInPort) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  for (PortId p = 1; p <= 4; ++p) {
    cache.insert(make_key(p, 0, 0, 0), mask, p, 1);
  }
  // The first in_port ADD finds no index for its shape: the drain
  // examines all four entries, evicts the one on port 2 (no resolver)
  // and indexes the subtable by in_port.
  Match port2;
  port2.in_port(2);
  cache.on_table_change(change_event(FlowModCommand::kAdd, port2, 1, 2));
  const MegaflowCache::RevalidateReport first = cache.revalidate();
  EXPECT_EQ(first.entries_scanned, 4u);
  EXPECT_EQ(first.index_probes, 0u);
  EXPECT_EQ(first.evicted, 1u);
  EXPECT_EQ(cache.entry_count(), 3u);
  // An ADD on a port no entry carries: its bucket is empty, so the drain
  // examines no entry and skips the subtable.
  Match far_port;
  far_port.in_port(9);
  cache.on_table_change(change_event(FlowModCommand::kAdd, far_port, 1, 3));
  const MegaflowCache::RevalidateReport clean = cache.revalidate();
  EXPECT_EQ(clean.index_probes, 1u);
  EXPECT_EQ(clean.entries_scanned, 0u);
  EXPECT_EQ(clean.subtables_skipped, 1u);
  EXPECT_EQ(clean.revalidated, 0u);
  EXPECT_EQ(cache.stats().subtables_skipped, 1u);
  EXPECT_EQ(cache.entry_count(), 3u);
  // An ADD on a port an entry DOES carry examines that entry alone and
  // (no resolver) evicts it: the index never hides a suspect.
  Match port3;
  port3.in_port(3);
  cache.on_table_change(change_event(FlowModCommand::kAdd, port3, 1, 4));
  const MegaflowCache::RevalidateReport dirty = cache.revalidate();
  EXPECT_EQ(dirty.subtables_skipped, 0u);
  EXPECT_EQ(dirty.entries_scanned, 1u);
  EXPECT_EQ(dirty.revalidated, 1u);
  EXPECT_EQ(dirty.evicted, 1u);
  EXPECT_EQ(cache.entry_count(), 2u);
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(3, 0, 0, 0), 4, tally), kRuleNone);
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 4, tally), 1u);
  EXPECT_EQ(cache.lookup(make_key(4, 0, 0, 0), 4, tally), 4u);
}

TEST(MegaflowCacheTest, IndexFindsDeleteSuspectsAcrossRepairAndOverwrite) {
  // A DELETE finds its suspects in the bucket of its own match, then
  // keeps those whose rule it removed. Repair and overwrite rewrite only
  // the rule, never the key, so the entry stays in its bucket: a DELETE
  // of the rule it holds now must still find it, and a DELETE of the
  // rule it held before must not.
  MegaflowCache cache;
  cache.set_revalidation_hooks(
      [](const pkt::FlowKey&) {
        MegaflowCache::Resolution res;
        res.found = true;
        res.rule = 42;
        res.unwildcarded = MaskSpec{.fields = openflow::kMatchInPort};
        return res;
      },
      nullptr, nullptr);
  MaskSpec mask{.fields = openflow::kMatchInPort};
  cache.insert(make_key(3, 0, 0, 0), mask, 7, 1);

  // Repair: an intersecting ADD re-resolves the entry to rule 42. This
  // first drain of the in_port shape indexes the subtable.
  Match port3;
  port3.in_port(3);
  cache.on_table_change(change_event(FlowModCommand::kAdd, port3, 50, 2));
  (void)cache.revalidate();
  ASSERT_EQ(cache.stats().revalidated_kept, 1u);

  // Deleting the OLD rule id finds the entry as a candidate and clears it.
  TableChangeEvent del_old =
      change_event(FlowModCommand::kDeleteStrict, port3, 50, 3);
  del_old.removed = {7};
  cache.on_table_change(del_old);
  const MegaflowCache::RevalidateReport old_gone = cache.revalidate();
  EXPECT_EQ(old_gone.index_probes, 1u);
  EXPECT_EQ(old_gone.entries_scanned, 1u);
  EXPECT_EQ(old_gone.revalidated, 0u);
  EXPECT_EQ(cache.entry_count(), 1u);

  // Deleting the CURRENT rule id finds the suspect through the index.
  TableChangeEvent del_new =
      change_event(FlowModCommand::kDeleteStrict, port3, 50, 4);
  del_new.removed = {42};
  cache.on_table_change(del_new);
  const MegaflowCache::RevalidateReport new_gone = cache.revalidate();
  EXPECT_EQ(new_gone.index_probes, 1u);
  EXPECT_EQ(new_gone.revalidated, 1u);

  // Overwrite: re-installing an indexed entry's masked key under a new
  // rule leaves it where it was filed.
  MegaflowCache cache2;
  cache2.insert(make_key(4, 0, 0, 0), mask, 5, 1);
  cache2.insert(make_key(5, 0, 0, 0), mask, 8, 1);
  TableChangeEvent index_it = change_event(FlowModCommand::kDeleteStrict,
                                           Match{}.in_port(7), 50, 2);
  index_it.removed = {99};
  cache2.on_table_change(index_it);
  EXPECT_EQ(cache2.revalidate().entries_scanned, 2u);  // builds the index
  cache2.insert(make_key(4, 9, 9, 9), mask, 6, 2);  // same masked key
  ASSERT_EQ(cache2.stats().overwrites, 1u);
  TableChangeEvent del5 = change_event(FlowModCommand::kDeleteStrict,
                                       Match{}.in_port(4), 50, 3);
  del5.removed = {5};
  cache2.on_table_change(del5);
  const MegaflowCache::RevalidateReport del5_report = cache2.revalidate();
  EXPECT_EQ(del5_report.index_probes, 1u);
  EXPECT_EQ(del5_report.revalidated, 0u);
  TableChangeEvent del6 = change_event(FlowModCommand::kDeleteStrict,
                                       Match{}.in_port(4), 50, 4);
  del6.removed = {6};
  cache2.on_table_change(del6);
  const MegaflowCache::RevalidateReport del6_report = cache2.revalidate();
  EXPECT_EQ(del6_report.index_probes, 1u);
  EXPECT_EQ(del6_report.entries_scanned, 1u);
  EXPECT_EQ(del6_report.revalidated, 1u);
  EXPECT_EQ(cache2.entry_count(), 1u);
}

TEST(MegaflowCacheTest, BatchLookupMatchesScalarResults) {
  MegaflowCache batch_cache;
  MegaflowCache scalar_cache;
  MaskSpec port_only{.fields = openflow::kMatchInPort};
  MaskSpec port_and_dst{
      .fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  for (PortId p = 1; p <= 4; ++p) {
    batch_cache.insert(make_key(p, 0, 0, 0), port_only, p, 1);
    scalar_cache.insert(make_key(p, 0, 0, 0), port_only, p, 1);
  }
  batch_cache.insert(make_key(9, 0, 0, 80), port_and_dst, 90, 1);
  scalar_cache.insert(make_key(9, 0, 0, 80), port_and_dst, 90, 1);

  std::vector<pkt::FlowKey> keys = {
      make_key(1, 5, 5, 5), make_key(3, 6, 6, 6), make_key(9, 0, 0, 80),
      make_key(7, 1, 1, 1),  // covered by nothing
  };
  std::vector<RuleId> out(keys.size(), kRuleNone);
  ProbeTally tally;
  batch_cache.lookup_batch(keys, 1, out, tally);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ProbeTally one;
    EXPECT_EQ(out[i], scalar_cache.lookup(keys[i], 1, one))
        << "batch vs scalar diverged on key " << i;
  }
  EXPECT_EQ(batch_cache.stats().hits, 3u);
  EXPECT_EQ(batch_cache.stats().misses, 1u);
  EXPECT_GT(tally.probes, 0u);
}

TEST(MegaflowCacheTest, RankingMovesHotSubtableFirst) {
  MegaflowCache cache;
  MaskSpec cold{.fields = openflow::kMatchInPort};
  MaskSpec hot{.fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  cache.insert(make_key(1, 0, 0, 0), cold, 1, 1);
  cache.insert(make_key(2, 0, 0, 80), hot, 2, 1);
  ASSERT_EQ(cache.subtable_masks().front(), cold);  // insertion order
  ProbeTally tally;
  // Three rank windows of hot-only traffic.
  for (std::uint32_t i = 0; i < 3 * MegaflowCache::kRankInterval; ++i) {
    ASSERT_EQ(cache.lookup(make_key(2, 0, 0, 80), 1, tally), 2u);
  }
  // After EWMA re-ranking the hot subtable is probed first.
  EXPECT_EQ(cache.subtable_masks().front(), hot);
  ProbeTally after;
  EXPECT_EQ(cache.lookup(make_key(2, 0, 0, 80), 1, after), 2u);
  EXPECT_EQ(after.probes, 1u);
  EXPECT_GE(cache.stats().reranks, 1u);
}

TEST(MegaflowCacheTest, EwmaRankingAdaptsWhenTrafficMixShifts) {
  MegaflowCache cache;
  MaskSpec a{.fields = openflow::kMatchInPort};
  MaskSpec b{.fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  cache.insert(make_key(1, 0, 0, 0), a, 1, 1);
  cache.insert(make_key(2, 0, 0, 80), b, 2, 1);
  ProbeTally tally;
  // Phase 1: subtable b is hot for five rank windows.
  for (std::uint32_t i = 0; i < 5 * MegaflowCache::kRankInterval; ++i) {
    (void)cache.lookup(make_key(2, 0, 0, 80), 1, tally);
  }
  EXPECT_EQ(cache.subtable_masks().front(), b);
  // Phase 2: traffic shifts to a for thirty windows; the EWMA decays b
  // and promotes a.
  for (std::uint32_t i = 0; i < 30 * MegaflowCache::kRankInterval; ++i) {
    (void)cache.lookup(make_key(1, 0, 0, 0), 1, tally);
  }
  EXPECT_EQ(cache.subtable_masks().front(), a);
}

// --------------------------------------------------------- three tiers

TEST(TierCountersTest, ListDeclaresEachFieldOnceWithTheBenchColumns) {
  std::set<std::string_view> names;
  std::vector<std::string_view> columns;
  std::vector<std::string_view> unpublished;
  const TierCounters probe;
  const auto* base = reinterpret_cast<const char*>(&probe);
  std::size_t index = 0;
  for (const TierCounterField& field : kTierCounterFields) {
    names.insert(field.name);
    if (field.column != nullptr) {
      columns.emplace_back(field.column);
    } else {
      unpublished.emplace_back(field.name);
    }
    // Declaration order: entry i names the i-th field of the struct.
    const auto* member = reinterpret_cast<const char*>(&(probe.*field.member));
    EXPECT_EQ(static_cast<std::size_t>(member - base),
              index++ * sizeof(std::uint64_t))
        << field.name;
  }
  EXPECT_EQ(names.size(), 22u);
  EXPECT_EQ(std::size(kTierCounterFields), 22u);
  EXPECT_EQ(sizeof(TierCounters), 22 * sizeof(std::uint64_t));
  // The published columns, in list order, are exactly these 15.
  const std::vector<std::string_view> expected_columns = {
      "emc_hits", "mf_hits", "mf_inserts", "mf_invalidations",
      "mf_revalidations", "slow_lookups", "sig_hits", "sig_fp",
      "batches", "reval_batches", "reval_scanned", "reval_coalesced",
      "simd_blocks", "subt_skipped", "prefilter_fp"};
  EXPECT_EQ(columns, expected_columns);
  // The seven counters no bench table carries stay unpublished.
  const std::vector<std::string_view> expected_unpublished = {
      "emc_misses", "megaflow_misses", "megaflow_revalidation_evictions",
      "emc_revalidations", "slow_path_misses", "batch_packets",
      "cache_resizes"};
  EXPECT_EQ(unpublished, expected_unpublished);
}

TEST(TierCountersTest, WindowDeltaUndoesMerge) {
  TierCounters a;
  TierCounters b;
  std::uint64_t i = 0;
  for (const TierCounterField& field : kTierCounterFields) {
    ++i;
    a.*field.member = i;
    b.*field.member = 1000 * i;
  }
  TierCounters sum = a;
  sum += b;
  const TierCounters back = sum - b;
  for (const TierCounterField& field : kTierCounterFields) {
    EXPECT_EQ(sum.*field.member, a.*field.member + b.*field.member)
        << field.name;
    EXPECT_EQ(back.*field.member, a.*field.member) << field.name;
  }
}

class DpClassifierTest : public ::testing::Test {
 protected:
  FlowTable table_;
  exec::CostModel cost_;
  exec::CycleMeter meter_;

  FlowEntry* lookup(DpClassifier& dp, const pkt::FlowKey& key) {
    return dp.lookup(key, pkt::flow_key_hash(key), meter_).entry;
  }
};

TEST_F(DpClassifierTest, TierProgressionSlowPathThenMegaflowThenEmc) {
  DpClassifier dp(table_, cost_);
  // One wildcard rule steering everything from port 1 to port 2.
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());

  const pkt::FlowKey flow_a = make_key(1, 100, 200, 80);
  const pkt::FlowKey flow_b = make_key(1, 101, 201, 81);

  // First packet of flow A: both caches cold → slow path installs both.
  auto first = dp.lookup(flow_a, pkt::flow_key_hash(flow_a), meter_);
  ASSERT_NE(first.entry, nullptr);
  EXPECT_EQ(first.tier, Tier::kSlowPath);

  // Second packet of flow A: exact-match cache.
  auto second = dp.lookup(flow_a, pkt::flow_key_hash(flow_a), meter_);
  EXPECT_EQ(second.tier, Tier::kEmc);

  // First packet of flow B: EMC misses (different key) but the megaflow
  // installed for A is in_port-only, so it covers B — the whole point of
  // the middle tier.
  auto third = dp.lookup(flow_b, pkt::flow_key_hash(flow_b), meter_);
  EXPECT_EQ(third.tier, Tier::kMegaflow);
  EXPECT_EQ(third.entry, first.entry);

  // ... and B was promoted to the EMC.
  auto fourth = dp.lookup(flow_b, pkt::flow_key_hash(flow_b), meter_);
  EXPECT_EQ(fourth.tier, Tier::kEmc);

  const TierCounters& counters = dp.counters();
  EXPECT_EQ(counters.slow_path_lookups, 1u);
  EXPECT_EQ(counters.megaflow_hits, 1u);
  EXPECT_EQ(counters.emc_hits, 2u);
  EXPECT_EQ(counters.megaflow_inserts, 1u);
}

TEST_F(DpClassifierTest, UnwildcardingPreventsPriorityShadowingBug) {
  DpClassifier dp(table_, cost_);
  // High-priority narrow rule and low-priority broad rule on port 1.
  Match narrow;
  narrow.in_port(1).l4_dst(80);
  ASSERT_TRUE(table_.apply(add_rule(narrow, 200, 3)).is_ok());
  Match broad;
  broad.in_port(1);
  ASSERT_TRUE(table_.apply(add_rule(broad, 100, 2)).is_ok());

  // A non-port-80 packet resolves to the broad rule; the megaflow it
  // installs must unwildcard l4_dst (the narrow rule was examined), so a
  // port-80 packet cannot be swallowed by it.
  FlowEntry* other = lookup(dp, make_key(1, 1, 2, 443));
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->priority, 100);

  FlowEntry* web = lookup(dp, make_key(1, 9, 9, 80));
  ASSERT_NE(web, nullptr);
  EXPECT_EQ(web->priority, 200);
  EXPECT_EQ(dp.counters().megaflow_hits, 0u);  // distinct masked keys
}

TEST_F(DpClassifierTest, FlowModRevalidatesCachedMegaflows) {
  DpClassifier dp(table_, cost_);
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());
  const pkt::FlowKey key = make_key(1, 1, 2, 80);
  ASSERT_NE(lookup(dp, key), nullptr);
  ASSERT_NE(lookup(dp, key), nullptr);  // cached now

  // Shadow the steering rule with a higher-priority send-to-port-3 rule.
  Match all_port1;
  all_port1.in_port(1);
  ASSERT_TRUE(table_.apply(add_rule(all_port1, 500, 3)).is_ok());

  FlowEntry* after = lookup(dp, key);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->priority, 500);  // never the stale rule
  EXPECT_EQ(after, table_.lookup(key));
  // The change was applied by precise revalidation on this (owner)
  // thread — both tiers were repaired, nothing was flushed.
  EXPECT_GE(dp.counters().megaflow_revalidations, 1u);
  EXPECT_GE(dp.counters().emc_revalidations, 1u);
  EXPECT_EQ(dp.counters().megaflow_invalidations, 0u);
}

TEST_F(DpClassifierTest, RevalidatorRetainsEntriesUntouchedByFlowMod) {
  DpClassifier dp(table_, cost_);
  for (PortId p = 1; p <= 4; ++p) {
    ASSERT_TRUE(
        table_.apply(openflow::make_p2p_flowmod(p, p + 10, 100, p)).is_ok());
  }
  // Warm the megaflow tier: one flow installs, a second distinct flow on
  // the same port proves the in_port-only megaflow serves.
  for (PortId p = 1; p <= 4; ++p) {
    ASSERT_NE(lookup(dp, make_key(p, 10, 20, 443)), nullptr);
    const pkt::FlowKey alt = make_key(p, 11, 21, 444);
    EXPECT_EQ(dp.lookup(alt, pkt::flow_key_hash(alt), meter_).tier,
              Tier::kMegaflow);
  }
  const TierCounters before = dp.counters();

  // Churn touches port 1 only.
  Match narrow;
  narrow.in_port(1).l4_dst(80);
  ASSERT_TRUE(table_.apply(add_rule(narrow, 500, 9)).is_ok());

  // Ports 2..4: fresh keys still resolve in the megaflow tier — their
  // entries survived the FlowMod, no new upcalls.
  for (PortId p = 2; p <= 4; ++p) {
    const pkt::FlowKey fresh = make_key(p, 12, 22, 445);
    EXPECT_EQ(dp.lookup(fresh, pkt::flow_key_hash(fresh), meter_).tier,
              Tier::kMegaflow);
  }
  EXPECT_EQ(dp.counters().slow_path_lookups, before.slow_path_lookups);

  // Port 1's megaflow could now shadow the narrow rule (its unwildcard
  // set grew), so it was evicted; the next port-1 packet upcalls and the
  // answer always agrees with the table.
  const pkt::FlowKey web = make_key(1, 12, 22, 80);
  const LookupOutcome outcome =
      dp.lookup(web, pkt::flow_key_hash(web), meter_);
  ASSERT_NE(outcome.entry, nullptr);
  EXPECT_EQ(outcome.tier, Tier::kSlowPath);
  EXPECT_EQ(outcome.entry->priority, 500);
  EXPECT_GE(dp.counters().megaflow_revalidations, 1u);
}

TEST_F(DpClassifierTest, ModifyRepairsEmcGenerationWithoutEvicting) {
  DpClassifier dp(table_, cost_);
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());
  const pkt::FlowKey key = make_key(1, 1, 2, 80);
  ASSERT_NE(lookup(dp, key), nullptr);
  ASSERT_NE(lookup(dp, key), nullptr);  // EMC-resident now

  FlowMod mod;
  mod.command = FlowModCommand::kModify;
  mod.match.in_port(1);
  mod.actions = {Action::output(7)};
  ASSERT_TRUE(table_.apply(mod).is_ok());

  // The rule's generation moved; the revalidator re-stamps the slot so
  // the very next packet still hits tier 1 — with the new actions.
  const LookupOutcome outcome = dp.lookup(key, pkt::flow_key_hash(key), meter_);
  ASSERT_NE(outcome.entry, nullptr);
  EXPECT_EQ(outcome.tier, Tier::kEmc);
  EXPECT_EQ(outcome.entry->actions[0].port, 7);
  EXPECT_GE(dp.counters().emc_revalidations, 1u);
}

TEST_F(DpClassifierTest, DisabledTiersFallThrough) {
  DpClassifier emc_only(
      table_, cost_, DpClassifierConfig{.megaflow_enabled = false});
  DpClassifier table_only(
      table_, cost_,
      DpClassifierConfig{.emc_enabled = false, .megaflow_enabled = false});
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());
  const pkt::FlowKey key = make_key(1, 1, 2, 80);

  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(emc_only.lookup(key, pkt::flow_key_hash(key), meter_).entry,
              nullptr);
    ASSERT_NE(table_only.lookup(key, pkt::flow_key_hash(key), meter_).entry,
              nullptr);
  }
  EXPECT_EQ(emc_only.counters().megaflow_hits, 0u);
  EXPECT_EQ(emc_only.counters().emc_hits, 2u);
  EXPECT_EQ(table_only.counters().emc_hits, 0u);
  EXPECT_EQ(table_only.counters().slow_path_lookups, 3u);
}

TEST_F(DpClassifierTest, EmcOnlyConfigStillRevalidatesPrecisely) {
  DpClassifier dp(table_, cost_,
                  DpClassifierConfig{.megaflow_enabled = false});
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(2, 3, 10, 2)).is_ok());
  const pkt::FlowKey on1 = make_key(1, 1, 2, 80);
  const pkt::FlowKey on2 = make_key(2, 1, 2, 80);
  ASSERT_NE(lookup(dp, on1), nullptr);
  ASSERT_NE(lookup(dp, on2), nullptr);

  // Shadow port 1; the port-2 slot must keep serving from the EMC.
  Match all_port1;
  all_port1.in_port(1);
  ASSERT_TRUE(table_.apply(add_rule(all_port1, 500, 3)).is_ok());
  const LookupOutcome hit1 = dp.lookup(on1, pkt::flow_key_hash(on1), meter_);
  EXPECT_EQ(hit1.tier, Tier::kEmc);  // repaired in place
  ASSERT_NE(hit1.entry, nullptr);
  EXPECT_EQ(hit1.entry->priority, 500);
  const LookupOutcome hit2 = dp.lookup(on2, pkt::flow_key_hash(on2), meter_);
  EXPECT_EQ(hit2.tier, Tier::kEmc);  // untouched, still resident
}

TEST_F(DpClassifierTest, ChargesPerTierCosts) {
  DpClassifier dp(table_, cost_);
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());
  const pkt::FlowKey key = make_key(1, 1, 2, 80);

  exec::CycleMeter slow;
  (void)dp.lookup(key, pkt::flow_key_hash(key), slow);
  const TierCounters before = dp.counters();
  exec::CycleMeter emc;
  (void)dp.lookup(key, pkt::flow_key_hash(key), emc);
  // Slow path pays the upcall base + scan + install on top of the probes.
  EXPECT_GE(slow.total_used(),
            emc.total_used() + cost_.slow_path_base + cost_.megaflow_insert);
  // A one-key lookup is a batch of one: the batch base plus the EMC hit,
  // exactly what a one-packet burst pays in the forwarding engine.
  EXPECT_EQ(emc.total_used(), cost_.classify_batch_base + cost_.emc_hit);
  EXPECT_EQ(dp.counters().batches, before.batches + 1);
  EXPECT_EQ(dp.counters().batch_packets, before.batch_packets + 1);
}

TEST_F(DpClassifierTest, RevalidationWorkIsChargedToTheMeter) {
  DpClassifier dp(table_, cost_);
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());
  const pkt::FlowKey key = make_key(1, 1, 2, 80);
  (void)dp.lookup(key, pkt::flow_key_hash(key), meter_);
  (void)dp.lookup(key, pkt::flow_key_hash(key), meter_);

  Match all_port1;
  all_port1.in_port(1);
  ASSERT_TRUE(table_.apply(add_rule(all_port1, 500, 3)).is_ok());
  exec::CycleMeter churned;
  (void)dp.lookup(key, pkt::flow_key_hash(key), churned);
  // EMC hit + one coalesced suspect scan (at least the megaflow entry
  // and the EMC slot examined) + two repairs (one megaflow, one EMC).
  EXPECT_GE(churned.total_used(), cost_.emc_hit +
                                      2 * cost_.revalidate_per_entry +
                                      2 * cost_.revalidate_repair);
}

TEST_F(DpClassifierTest, BatchUpcallsOnceForIntraBatchDuplicates) {
  DpClassifier dp(table_, cost_);
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());
  // A whole burst of one brand-new flow: the batched path must upcall
  // once and resolve the duplicates from the caches that upcall filled,
  // like the scalar path would — not pay 32 wildcard scans.
  const pkt::FlowKey key = make_key(1, 1, 2, 80);
  std::vector<pkt::FlowKey> keys(32, key);
  std::vector<std::uint32_t> hashes(32, pkt::flow_key_hash(key));
  std::vector<LookupOutcome> outcomes(32);
  dp.lookup_batch(keys, hashes, outcomes, meter_);
  EXPECT_EQ(dp.counters().slow_path_lookups, 1u);
  EXPECT_EQ(dp.counters().emc_hits, 31u);
  for (const LookupOutcome& outcome : outcomes) {
    ASSERT_NE(outcome.entry, nullptr);
    EXPECT_EQ(outcome.entry, outcomes[0].entry);
  }
}

TEST_F(DpClassifierTest, BatchUpcallsOnceForFreshFlowAggregate) {
  DpClassifier dp(table_, cost_);
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());
  // 32 DISTINCT flows all covered by the in_port-only rule: the first
  // upcall installs an in_port-only megaflow, and the rest of the batch
  // must resolve against it instead of re-upcalling.
  std::vector<pkt::FlowKey> keys;
  std::vector<std::uint32_t> hashes;
  for (std::uint32_t i = 0; i < 32; ++i) {
    keys.push_back(make_key(1, 100 + i, 200 + i, 80));
    hashes.push_back(pkt::flow_key_hash(keys.back()));
  }
  std::vector<LookupOutcome> outcomes(32);
  dp.lookup_batch(keys, hashes, outcomes, meter_);
  EXPECT_EQ(dp.counters().slow_path_lookups, 1u);
  EXPECT_EQ(dp.counters().megaflow_hits, 31u);
  for (const LookupOutcome& outcome : outcomes) {
    ASSERT_NE(outcome.entry, nullptr);
    EXPECT_EQ(outcome.entry, outcomes[0].entry);
  }
}

// -------------------------------------------- revalidator edge paths
// The churn oracle below keeps its event queue drained on every lookup,
// so it can never overflow and it never deletes-then-re-adds an
// identical match in one drain. These tests pin down exactly those
// paths.

TEST_F(DpClassifierTest, QueueOverflowCountsFullFlushAndClearsEmc) {
  // Rules go in before the classifier subscribes, so the only queued
  // events are the churn burst below.
  for (PortId p = 1; p <= 4; ++p) {
    ASSERT_TRUE(
        table_.apply(openflow::make_p2p_flowmod(p, p + 10, 100, p)).is_ok());
  }
  DpClassifier dp(table_, cost_);
  const pkt::FlowKey key = make_key(1, 1, 2, 80);
  ASSERT_NE(lookup(dp, key), nullptr);
  ASSERT_EQ(dp.lookup(key, pkt::flow_key_hash(key), meter_).tier, Tier::kEmc);
  ASSERT_GT(dp.megaflow().entry_count(), 0u);

  // A burst of FlowMods (far port — they intersect nothing cached), one
  // more than the queue holds, lands before the owner thread touches the
  // caches again: precise tracking is abandoned for one full flush.
  Match far_port;
  far_port.in_port(99);
  for (std::size_t i = 0; i <= MegaflowCache::kRevalidatorQueueLimit; ++i) {
    ASSERT_TRUE(
        table_
            .apply(add_rule(far_port, static_cast<std::uint16_t>(300 + i), 5))
            .is_ok());
  }

  const LookupOutcome after = dp.lookup(key, pkt::flow_key_hash(key), meter_);
  // The flush is counted (megaflow_invalidations) and both tiers were
  // dropped — the EMC-resident key had to re-upcall — yet the answer is
  // still the table's.
  EXPECT_EQ(after.tier, Tier::kSlowPath);
  ASSERT_NE(after.entry, nullptr);
  EXPECT_EQ(after.entry, table_.lookup(key));
  EXPECT_EQ(dp.megaflow().stats().queue_overflows, 1u);
  EXPECT_GE(dp.counters().megaflow_invalidations, 1u);
  // Caches re-warm normally afterwards.
  EXPECT_EQ(dp.lookup(key, pkt::flow_key_hash(key), meter_).tier, Tier::kEmc);
}

TEST_F(DpClassifierTest, EmcNeverServesStaleRuleAcrossDeleteAndReadd) {
  DpClassifier dp(table_, cost_);
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 2, 10, 1)).is_ok());
  const pkt::FlowKey key = make_key(1, 1, 2, 80);
  ASSERT_NE(lookup(dp, key), nullptr);
  const LookupOutcome warm = dp.lookup(key, pkt::flow_key_hash(key), meter_);
  ASSERT_EQ(warm.tier, Tier::kEmc);
  const RuleId old_id = warm.entry->id;

  // Delete the rule and re-add the SAME match+priority with different
  // actions, with no lookup in between: both events drain together on
  // the next touch. The slot's generation stamp is for the dead rule, so
  // whichever path resolves the slot must end up at the NEW rule.
  FlowMod del;
  del.command = FlowModCommand::kDeleteStrict;
  del.match.in_port(1);
  del.priority = 10;
  ASSERT_TRUE(table_.apply(del).is_ok());
  ASSERT_TRUE(table_.apply(openflow::make_p2p_flowmod(1, 7, 10, 2)).is_ok());

  const LookupOutcome after = dp.lookup(key, pkt::flow_key_hash(key), meter_);
  ASSERT_NE(after.entry, nullptr);
  EXPECT_NE(after.entry->id, old_id);  // the re-add minted a fresh rule
  EXPECT_EQ(after.entry, table_.lookup(key));
  EXPECT_EQ(after.entry->actions[0].port, 7);
  EXPECT_GE(dp.counters().emc_revalidations, 1u);
  // And the EMC serves the new rule from here on.
  const LookupOutcome steady = dp.lookup(key, pkt::flow_key_hash(key), meter_);
  EXPECT_EQ(steady.tier, Tier::kEmc);
  EXPECT_EQ(steady.entry->actions[0].port, 7);
}

// ------------------------------------------------- churn torture (oracle)

constexpr PortId kPorts = 6;

/// Random FlowMod generator biased toward overlapping rules: catch-alls,
/// port steering, L4 selectors, IP prefixes of mixed length — maximal
/// mask diversity and maximal chance of priority shadowing.
FlowMod random_mod(Rng& rng) {
  FlowMod mod;
  const std::uint64_t op = rng.next_below(10);
  if (op < 6) {
    mod.command = FlowModCommand::kAdd;
  } else if (op < 7) {
    mod.command = FlowModCommand::kModify;
  } else if (op < 8) {
    mod.command = FlowModCommand::kModifyStrict;
  } else if (op < 9) {
    mod.command = FlowModCommand::kDelete;
  } else {
    mod.command = FlowModCommand::kDeleteStrict;
  }
  mod.priority = static_cast<std::uint16_t>(rng.next_below(6) * 50);
  mod.cookie = rng.next();
  if (rng.chance(4, 5)) {
    mod.match.in_port(static_cast<PortId>(1 + rng.next_below(kPorts)));
  }
  if (rng.chance(1, 3)) {
    mod.match.ip_proto(rng.chance(1, 2) ? pkt::kIpProtoUdp
                                        : pkt::kIpProtoTcp);
  }
  if (rng.chance(1, 3)) {
    mod.match.l4_dst(static_cast<std::uint16_t>(80 + rng.next_below(3)));
  }
  if (rng.chance(1, 4)) {
    const std::uint8_t plens[] = {8, 16, 24, 32};
    mod.match.ip_dst(0x0a000000u | static_cast<std::uint32_t>(
                                       rng.next_below(4) << 16),
                     plens[rng.next_below(4)]);
  }
  mod.actions = {
      Action::output(static_cast<PortId>(1 + rng.next_below(kPorts)))};
  return mod;
}

pkt::FlowKey random_key(Rng& rng) {
  pkt::FlowKey key;
  key.in_port = static_cast<PortId>(1 + rng.next_below(kPorts));
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp;
  key.src_ip = 0xc0a80000u | static_cast<std::uint32_t>(rng.next_below(16));
  key.dst_ip = 0x0a000000u |
               static_cast<std::uint32_t>(rng.next_below(4) << 16) |
               static_cast<std::uint32_t>(rng.next_below(8));
  key.src_port = 1234;
  key.dst_port =
      rng.chance(1, 2) ? static_cast<std::uint16_t>(79 + rng.next_below(4))
                       : 5000;
  return key;
}

/// STALENESS ORACLE: under arbitrary FlowMod add/modify/delete churn the
/// classifier must agree with a plain wildcard-table lookup on *every*
/// packet — i.e. the revalidator may never leave a cache tier serving a
/// rule the table would no longer pick. Keys are drawn from a recycled
/// pool so the EMC and megaflow tiers genuinely serve hits between table
/// changes, and the per-trial tallies prove the precise path (not the
/// flush fallback) is what the oracle exercises.
class MegaflowChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MegaflowChurnTest, NeverServesStaleRuleUnderChurn) {
  Rng rng(GetParam());
  exec::CostModel cost;
  std::uint64_t total_cached_hits = 0;
  std::uint64_t total_revalidations = 0;
  std::uint64_t total_flushes = 0;
  for (int trial = 0; trial < 60; ++trial) {
    FlowTable table;
    DpClassifier dp(table, cost);
    exec::CycleMeter meter;

    // A pool of keys reused across the trial so caches warm up.
    std::vector<pkt::FlowKey> pool;
    for (int i = 0; i < 48; ++i) pool.push_back(random_key(rng));

    for (int round = 0; round < 40; ++round) {
      const int ops = static_cast<int>(rng.next_in(1, 3));
      for (int i = 0; i < ops; ++i) {
        (void)table.apply(random_mod(rng));  // no-op mods are fine too
      }
      const int lookups = static_cast<int>(rng.next_in(8, 32));
      for (int i = 0; i < lookups; ++i) {
        const pkt::FlowKey& key = pool[rng.next_below(pool.size())];
        FlowEntry* expected = table.lookup(key);
        const LookupOutcome got =
            dp.lookup(key, pkt::flow_key_hash(key), meter);
        if (expected == nullptr) {
          ASSERT_EQ(got.entry, nullptr)
              << "trial " << trial << " round " << round
              << ": classifier hit where the table misses";
        } else {
          ASSERT_NE(got.entry, nullptr)
              << "trial " << trial << " round " << round
              << ": classifier miss where the table hits";
          ASSERT_EQ(got.entry->id, expected->id)
              << "trial " << trial << " round " << round << ": tier "
              << static_cast<int>(got.tier) << " served rule "
              << got.entry->id << " but the table picks " << expected->id;
        }
      }
    }
    // The oracle must have exercised the cached tiers, not just the slow
    // path, for the test to mean anything.
    EXPECT_GT(dp.counters().emc_hits + dp.counters().megaflow_hits, 0u);
    total_cached_hits += dp.counters().emc_hits + dp.counters().megaflow_hits;
    total_revalidations += dp.counters().megaflow_revalidations +
                           dp.counters().emc_revalidations;
    total_flushes += dp.counters().megaflow_invalidations;
  }
  // ... and it must have exercised the precise revalidator, without ever
  // needing the flush fallback (the queue drains every lookup).
  EXPECT_GT(total_cached_hits, 0u);
  EXPECT_GT(total_revalidations, 0u);
  EXPECT_EQ(total_flushes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MegaflowChurnTest,
                         ::testing::Values(0xa001, 0xa002, 0xa003, 0xa004,
                                           0xa005, 0xa006));

}  // namespace
}  // namespace hw::classifier
