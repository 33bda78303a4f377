#include <gtest/gtest.h>

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

  std::uint32_t probed = 0;
  // Any packet from port 2 matches the port-only megaflow.
  EXPECT_EQ(cache.lookup(make_key(2, 99, 98, 4242), 1, probed), 11u);
  EXPECT_EQ(cache.lookup(make_key(3, 1, 2, 80), 1, probed), 12u);
  EXPECT_EQ(cache.lookup(make_key(4, 1, 2, 80), 1, probed), kRuleNone);
  EXPECT_EQ(probed, 2u);  // a miss probes every subtable
}

TEST(MegaflowCacheTest, StaleVersionIsNeverServed) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  cache.insert(make_key(1, 0, 0, 0), mask, 7, /*table_version=*/5);
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 5, probed), 7u);
  // Table moved on without an explaining change event: the entry must be
  // treated as a miss and evicted.
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 6, probed), kRuleNone);
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
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(3, 0, 0, 0), 2, probed), kRuleNone);
  EXPECT_EQ(cache.entry_count(), 7u);
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 2, probed), 1u);
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
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 2, probed), 10u);
  EXPECT_EQ(cache.lookup(make_key(2, 0, 0, 0), 2, probed), kRuleNone);
  EXPECT_EQ(cache.stats().revalidations, 1u);
}

TEST(MegaflowCacheTest, QueueOverflowFallsBackToFullFlush) {
  MegaflowCache cache(
      MegaflowCache::Config{.revalidator_queue_limit = 2});
  MaskSpec mask{.fields = openflow::kMatchInPort};
  for (PortId p = 1; p <= 4; ++p) {
    cache.insert(make_key(p, 0, 0, 0), mask, p, 1);
  }
  Match far_port;
  far_port.in_port(99);  // intersects nothing cached
  for (std::uint64_t v = 2; v <= 5; ++v) {
    cache.on_table_change(
        change_event(FlowModCommand::kAdd, far_port, 1, v));
  }
  std::uint32_t probed = 0;
  // Precise tracking was abandoned: everything is gone, counted as an
  // overflow-driven flush, and the cache is synced to the last version.
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 5, probed), kRuleNone);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().queue_overflows, 1u);
  EXPECT_EQ(cache.stats().flushes, 1u);
}

TEST(MegaflowCacheTest, CoalescedDrainRunsOneSuspectScanPerBurst) {
  // Subtable prefilter ablated so the scan-count arithmetic below stays
  // exact (with it on, the far-port burst skips the subtable entirely —
  // asserted by the prefilter tests further down).
  MegaflowCache cache(MegaflowCacheConfig{.subtable_prefilter = false});
  MaskSpec mask{.fields = openflow::kMatchInPort};
  for (PortId p = 1; p <= 8; ++p) {
    cache.insert(make_key(p, 0, 0, 0), mask, p, 1);
  }
  // A burst of five FlowMods lands before the owner touches the cache.
  // The drain must fold them into ONE suspect scan: 8 entries examined,
  // not 40 — and the identical far-port matches merge into one plan
  // mask, so nothing is suspect and every entry survives.
  Match far_port;
  far_port.in_port(99);
  for (std::uint64_t v = 2; v <= 6; ++v) {
    cache.on_table_change(
        change_event(FlowModCommand::kAdd, far_port, 1, v));
  }
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 6, probed), 1u);
  EXPECT_EQ(cache.stats().reval_batches, 1u);
  EXPECT_EQ(cache.stats().reval_entries_scanned, 8u);
  EXPECT_EQ(cache.stats().reval_coalesced_events, 4u);
  EXPECT_EQ(cache.stats().revalidations, 0u);
  // The merged plan has ONE ADD term; every entry pays exactly one
  // intersect test on top of its membership probe.
  EXPECT_EQ(cache.stats().reval_term_tests, 8u);
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
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(3, 0, 0, 0), 3, probed), 42u);
  EXPECT_EQ(resolver_calls, 1);
  EXPECT_EQ(cache.stats().revalidations, 1u);
  EXPECT_EQ(cache.stats().reval_batches, 1u);
  EXPECT_EQ(cache.stats().reval_entries_scanned, 2u);
  EXPECT_EQ(cache.stats().reval_coalesced_events, 1u);
  // Port 4's entry was examined but never suspected — and still serves.
  EXPECT_EQ(cache.lookup(make_key(4, 0, 0, 0), 3, probed), 8u);
  EXPECT_EQ(cache.stats().revalidated_kept, 1u);
}

TEST(MegaflowCacheTest, WorkingSetEwmaResizesCapacity) {
  MegaflowCacheConfig config;
  config.max_entries = 1u << 16;
  config.min_entries = 16;
  config.size_interval = 256;
  MegaflowCache cache(config);
  MaskSpec mask{.fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  auto key_for = [](std::uint32_t i) {
    return make_key(static_cast<PortId>(1 + (i % 6)), 9, 9,
                    static_cast<std::uint16_t>(1000 + i));
  };
  for (std::uint32_t i = 0; i < 200; ++i) {
    cache.insert(key_for(i), mask, 100 + i, 1);
  }
  ASSERT_EQ(cache.entry_count(), 200u);
  EXPECT_EQ(cache.capacity(), config.max_entries);  // first window pending

  std::uint32_t probed = 0;
  // Phase 1: the whole population is hot — the capacity tracks the
  // measured working set (with headroom) instead of the configured max,
  // but never dips below what the traffic uses.
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < 200; ++i) {
      EXPECT_EQ(cache.lookup(key_for(i), 1, probed), 100u + i);
    }
  }
  EXPECT_LT(cache.capacity(), config.max_entries);
  EXPECT_GE(cache.capacity(), cache.entry_count());
  EXPECT_GE(cache.stats().cache_resizes, 1u);
  EXPECT_EQ(cache.entry_count(), 200u);  // nothing trimmed while hot

  // Phase 2: traffic narrows to one flow; the EWMA decays and the cache
  // trims to the small working set, shedding cold entries — which is
  // exactly what keeps later suspect scans proportional to live use.
  for (int i = 0; i < 256 * 12; ++i) {
    (void)cache.lookup(key_for(0), 1, probed);
  }
  EXPECT_LE(cache.capacity(), 64u);
  EXPECT_LE(cache.entry_count(), 64u);
  EXPECT_GE(cache.stats().cache_resizes, 2u);
  EXPECT_GT(cache.stats().capacity_evictions, 0u);
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
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 1, probed), 12u);
}

TEST(MegaflowCacheTest, EmptySubtablesArePrunedAndStopCostingProbes) {
  MegaflowCache cache;
  MaskSpec port_only{.fields = openflow::kMatchInPort};
  MaskSpec port_and_dst{
      .fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  cache.insert(make_key(1, 0, 0, 80), port_and_dst, 10, /*version=*/1);
  cache.insert(make_key(2, 0, 0, 0), port_only, 11, 1);
  EXPECT_EQ(cache.subtable_count(), 2u);
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(9, 0, 0, 0), 1, probed), kRuleNone);
  EXPECT_EQ(probed, 2u);

  // Stale-evict the only entry of the port+dst subtable (version skew);
  // the emptied subtable must be pruned, not probed forever.
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 80), 2, probed), kRuleNone);
  EXPECT_EQ(cache.subtable_count(), 1u);
  EXPECT_GE(cache.stats().subtables_pruned, 1u);
  (void)cache.lookup(make_key(9, 0, 0, 0), 2, probed);
  EXPECT_EQ(probed, 1u);  // shrank: the empty subtable no longer charges
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
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(2, 0, 0, 80), 1, probed), 11u);
  EXPECT_EQ(probed, 1u);
}

TEST(MegaflowCacheTest, SignatureScanCountsHitsAndFalsePositives) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  for (PortId p = 1; p <= 8; ++p) {
    cache.insert(make_key(p, 0, 0, 0), mask, p, 1);
  }
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(5, 7, 7, 7), 1, probed), 5u);
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

  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(raw, 2, probed), 42u);
  EXPECT_EQ(cache.stats().revalidated_kept, 1u);
  EXPECT_EQ(cache.stats().sig_hits, 1u);
  EXPECT_EQ(cache.stats().sig_false_positives, 0u);
  // Any other key with the same masked projection finds it too.
  EXPECT_EQ(cache.lookup(make_key(3, 1, 0x0a0b0000, 80), 2, probed), 42u);
}

TEST(MegaflowCacheTest, SimdAndScalarSigScansAgree) {
  // The SIMD block scan and the portable scalar loop must be
  // bit-identical — same hits, same misses — including over the padded
  // tail block (37 entries = 2 full blocks + a 5-lane tail).
  MegaflowCache simd_cache;  // sig_scan_mode = kAuto
  MegaflowCache scalar_cache(
      MegaflowCacheConfig{.sig_scan_mode = SigScanMode::kScalar});
  MaskSpec mask{.fields = openflow::kMatchInPort | openflow::kMatchIpDst,
                .ip_dst_plen = 32};
  for (std::uint32_t i = 0; i < 37; ++i) {
    const pkt::FlowKey key = make_key(1, 0, 0x0a000000u + i, 80);
    simd_cache.insert(key, mask, i + 1, 1);
    scalar_cache.insert(key, mask, i + 1, 1);
  }
  for (std::uint32_t i = 0; i < 64; ++i) {  // 37 hits + 27 misses
    const pkt::FlowKey key = make_key(1, 0, 0x0a000000u + i, 80);
    std::uint32_t probed = 0;
    EXPECT_EQ(simd_cache.lookup(key, 1, probed),
              scalar_cache.lookup(key, 1, probed))
        << "dst index " << i;
  }
  // The scalar mode never touches the vector path; the auto mode uses it
  // whenever this binary compiled a backend in.
  EXPECT_EQ(scalar_cache.stats().simd_blocks, 0u);
  if (simd::kSimdCompiledIn) {
    EXPECT_GT(simd_cache.stats().simd_blocks, 0u);
  } else {
    EXPECT_EQ(simd_cache.stats().simd_blocks, 0u);
  }
}

TEST(MegaflowCacheTest, SubtablePrefilterSkipsNonMatchingSubtablesOnLookup) {
  MegaflowCache cache;
  MegaflowCache unfiltered(MegaflowCacheConfig{.subtable_prefilter = false});
  MaskSpec port_mask{.fields = openflow::kMatchInPort};
  MaskSpec port_l4_mask{.fields =
                            openflow::kMatchInPort | openflow::kMatchL4Dst};
  for (MegaflowCache* c : {&cache, &unfiltered}) {
    c->insert(make_key(1, 0, 0, 0), port_mask, 10, 1);
    c->insert(make_key(2, 0, 0, 443), port_l4_mask, 20, 1);
  }
  // A key matching neither subtable: the Bloom provably lacks both
  // masked projections, so the probe skips both without touching a
  // signature array or a slot.
  ProbeTally tally;
  EXPECT_EQ(cache.lookup(make_key(3, 0, 0, 7), 1, tally), kRuleNone);
  EXPECT_EQ(tally.probes, 2u);
  EXPECT_EQ(tally.prefilter_checks, 2u);
  EXPECT_EQ(tally.sig_blocks + tally.sig_scalar, 0u);
  EXPECT_EQ(tally.full_compares, 0u);
  EXPECT_EQ(cache.stats().subtables_skipped, 2u);
  // Hits still resolve identically to the unfiltered cache.
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(1, 5, 5, 5), 1, probed), 10u);
  EXPECT_EQ(cache.lookup(make_key(2, 0, 0, 443), 1, probed), 20u);
  EXPECT_EQ(unfiltered.lookup(make_key(3, 0, 0, 7), 1, probed), kRuleNone);
  EXPECT_EQ(unfiltered.lookup(make_key(1, 5, 5, 5), 1, probed), 10u);
  EXPECT_EQ(unfiltered.lookup(make_key(2, 0, 0, 443), 1, probed), 20u);
  EXPECT_EQ(unfiltered.stats().subtables_skipped, 0u);
}

TEST(MegaflowCacheTest, PrefilterSkipsRevalidatorScanForUntouchedSubtables) {
  MegaflowCache cache;
  MaskSpec mask{.fields = openflow::kMatchInPort};
  for (PortId p = 1; p <= 4; ++p) {
    cache.insert(make_key(p, 0, 0, 0), mask, p, 1);
  }
  // An ADD on a port no entry carries: the merged plan's only term
  // cannot intersect the subtable (its Bloom lacks in_port=9), so the
  // whole subtable is skipped — zero entries examined, zero suspects.
  Match far_port;
  far_port.in_port(9);
  cache.on_table_change(change_event(FlowModCommand::kAdd, far_port, 1, 2));
  const MegaflowCache::RevalidateReport clean = cache.revalidate();
  EXPECT_EQ(clean.subtables_skipped, 1u);
  EXPECT_EQ(clean.entries_scanned, 0u);
  EXPECT_EQ(clean.revalidated, 0u);
  EXPECT_EQ(cache.stats().subtables_skipped, 1u);
  EXPECT_EQ(cache.stats().reval_entries_scanned, 0u);
  EXPECT_EQ(cache.entry_count(), 4u);
  // An ADD on a port an entry DOES carry must not be skipped: the scan
  // runs, finds exactly the one suspect and (no resolver) evicts it —
  // the prefilter can only skip provably clean subtables, never hide a
  // suspect.
  Match port2;
  port2.in_port(2);
  cache.on_table_change(change_event(FlowModCommand::kAdd, port2, 1, 3));
  const MegaflowCache::RevalidateReport dirty = cache.revalidate();
  EXPECT_EQ(dirty.subtables_skipped, 0u);
  EXPECT_EQ(dirty.entries_scanned, 4u);
  EXPECT_EQ(dirty.revalidated, 1u);
  EXPECT_EQ(dirty.evicted, 1u);
  EXPECT_EQ(cache.entry_count(), 3u);
  std::uint32_t probed = 0;
  EXPECT_EQ(cache.lookup(make_key(2, 0, 0, 0), 3, probed), kRuleNone);
  EXPECT_EQ(cache.lookup(make_key(1, 0, 0, 0), 3, probed), 1u);
}

TEST(MegaflowCacheTest, PrefilterTracksRuleIdsAcrossRepairAndOverwrite) {
  // The Bloom's rule-id fingerprints must follow every rule rewrite —
  // repair-in-place and insert-overwrite — or a later DELETE could be
  // skipped while the cache still serves the deleted rule.
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

  // Repair: an intersecting ADD re-resolves the entry to rule 42.
  Match port3;
  port3.in_port(3);
  cache.on_table_change(change_event(FlowModCommand::kAdd, port3, 50, 2));
  (void)cache.revalidate();
  ASSERT_EQ(cache.stats().revalidated_kept, 1u);

  // Deleting the OLD rule id must now skip the subtable (id 7 left the
  // Bloom with the repair)...
  TableChangeEvent del_old =
      change_event(FlowModCommand::kDeleteStrict, port3, 50, 3);
  del_old.removed = {7};
  cache.on_table_change(del_old);
  const MegaflowCache::RevalidateReport old_gone = cache.revalidate();
  EXPECT_EQ(old_gone.subtables_skipped, 1u);
  EXPECT_EQ(old_gone.revalidated, 0u);
  EXPECT_EQ(cache.entry_count(), 1u);

  // ...while deleting the CURRENT rule id must still find the suspect.
  TableChangeEvent del_new =
      change_event(FlowModCommand::kDeleteStrict, port3, 50, 4);
  del_new.removed = {42};
  cache.on_table_change(del_new);
  const MegaflowCache::RevalidateReport new_gone = cache.revalidate();
  EXPECT_EQ(new_gone.subtables_skipped, 0u);
  EXPECT_EQ(new_gone.revalidated, 1u);

  // Overwrite: re-installing the same masked key under a new rule swaps
  // the fingerprint the same way.
  MegaflowCache cache2;
  cache2.insert(make_key(4, 0, 0, 0), mask, 5, 1);
  cache2.insert(make_key(4, 9, 9, 9), mask, 6, 1);  // same masked key
  ASSERT_EQ(cache2.stats().overwrites, 1u);
  TableChangeEvent del5 = change_event(FlowModCommand::kDeleteStrict,
                                       Match{}.in_port(4), 50, 2);
  del5.removed = {5};
  cache2.on_table_change(del5);
  EXPECT_EQ(cache2.revalidate().subtables_skipped, 1u);
  TableChangeEvent del6 = change_event(FlowModCommand::kDeleteStrict,
                                       Match{}.in_port(4), 50, 3);
  del6.removed = {6};
  cache2.on_table_change(del6);
  EXPECT_EQ(cache2.revalidate().revalidated, 1u);
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
    std::uint32_t probed = 0;
    EXPECT_EQ(out[i], scalar_cache.lookup(keys[i], 1, probed))
        << "batch vs scalar diverged on key " << i;
  }
  EXPECT_EQ(batch_cache.stats().hits, 3u);
  EXPECT_EQ(batch_cache.stats().misses, 1u);
  EXPECT_GT(tally.probes, 0u);
}

TEST(MegaflowCacheTest, RankingMovesHotSubtableFirst) {
  MegaflowCache cache(MegaflowCache::Config{.rank_interval = 64});
  MaskSpec cold{.fields = openflow::kMatchInPort};
  MaskSpec hot{.fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  cache.insert(make_key(1, 0, 0, 0), cold, 1, 1);
  cache.insert(make_key(2, 0, 0, 80), hot, 2, 1);
  ASSERT_EQ(cache.subtable_masks().front(), cold);  // insertion order
  std::uint32_t probed = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(cache.lookup(make_key(2, 0, 0, 80), 1, probed), 2u);
  }
  // After EWMA re-ranking the hot subtable is probed first.
  EXPECT_EQ(cache.subtable_masks().front(), hot);
  EXPECT_EQ(cache.lookup(make_key(2, 0, 0, 80), 1, probed), 2u);
  EXPECT_EQ(probed, 1u);
  EXPECT_GE(cache.stats().reranks, 1u);
}

TEST(MegaflowCacheTest, EwmaRankingAdaptsWhenTrafficMixShifts) {
  MegaflowCache cache(MegaflowCache::Config{.rank_interval = 64});
  MaskSpec a{.fields = openflow::kMatchInPort};
  MaskSpec b{.fields = openflow::kMatchInPort | openflow::kMatchL4Dst};
  cache.insert(make_key(1, 0, 0, 0), a, 1, 1);
  cache.insert(make_key(2, 0, 0, 80), b, 2, 1);
  std::uint32_t probed = 0;
  // Phase 1: subtable b is hot.
  for (int i = 0; i < 300; ++i) {
    (void)cache.lookup(make_key(2, 0, 0, 80), 1, probed);
  }
  EXPECT_EQ(cache.subtable_masks().front(), b);
  // Phase 2: traffic shifts to a; the EWMA decays b and promotes a.
  for (int i = 0; i < 2000; ++i) {
    (void)cache.lookup(make_key(1, 0, 0, 0), 1, probed);
  }
  EXPECT_EQ(cache.subtable_masks().front(), a);
}

// --------------------------------------------------------- three tiers

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
  DpClassifierConfig config;
  config.megaflow.revalidator_queue_limit = 2;
  DpClassifier dp(table_, cost_, config);
  const pkt::FlowKey key = make_key(1, 1, 2, 80);
  ASSERT_NE(lookup(dp, key), nullptr);
  ASSERT_EQ(dp.lookup(key, pkt::flow_key_hash(key), meter_).tier, Tier::kEmc);
  ASSERT_GT(dp.megaflow().entry_count(), 0u);

  // A burst of FlowMods (far port — they intersect nothing cached)
  // overflows the 2-deep queue before the owner thread touches the
  // caches again: precise tracking is abandoned for one full flush.
  Match far_port;
  far_port.in_port(99);
  for (int i = 0; i < 6; ++i) {
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
