#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "classifier/dp_classifier.h"
#include "common/rng.h"
#include "common/sampler.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "openflow/messages.h"
#include "pkt/headers.h"
#include "pkt/traffic_profile.h"

/// \file reval_work_test.cpp
/// PINNED DRAIN WORK. The revalidator's cost is charged from what its
/// drains did: entries examined, merged-ADD terms tested, suspects
/// repaired or evicted, subtables skipped, EMC slots re-resolved. A
/// faster way to find suspects must find exactly the same suspects and
/// process them in the same order, or the cache's layout, every later
/// capacity victim and every downstream count move.
///
/// The stream mirrors hostbench's reconfig_churn policy hop: two
/// directions of a Zipf(1.1) stream over 8,192 flows each, four policy
/// rules and a steering rule per direction, and after every slice of
/// traffic a burst of 8 FlowMods that ADD a fresh /26 destination rule
/// under a direction's in_port or strictly DELETE a live one. One burst
/// carries kRevalidatorQueueLimit - 1 events, the most one drain can
/// receive without the overflow flush. The suspect counts below
/// (revalidations, repairs, evictions, EMC re-resolutions) were computed
/// with the field-by-field reference tests (Match::matches,
/// may_intersect) scanning every entry, and the revalidation indexes
/// reproduce them exactly. The entries examined, terms tested and
/// subtables skipped are the indexes' own (a scan of every entry
/// examined 3,159,272 entries, 12,031 of them in the big burst, and
/// tested 8,446,446 terms). The capacity evictions and the digest of the
/// final layout are the scan's too, computed with the scan in place; a
/// change that moves any constant changes the work, and must say so.

namespace hw::classifier {
namespace {

using flowtable::FlowTable;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::Match;

constexpr std::uint32_t kFlows = 8192;
constexpr double kZipfS = 1.1;
constexpr std::uint8_t kChurnPrefix = 26;
constexpr std::uint32_t kChurnBlock = 1u << (32 - kChurnPrefix);
constexpr std::size_t kLiveMin = 8;
constexpr std::size_t kLiveMax = 24;
constexpr std::uint32_t kBurst = 8;
constexpr std::uint32_t kBatchesPerSlice = 18;
constexpr std::uint32_t kSlices = 320;
constexpr std::uint32_t kBigBurstSlice = 240;

struct Direction {
  PortId in = 0;
  PortId out = 0;
  pkt::TrafficProfile profile;
  std::uint32_t dst_base = 0;          ///< first /26 block of the flows
  std::vector<std::uint32_t> live;     ///< installed churn blocks
};

FlowMod rule(FlowModCommand command, std::uint16_t priority, Match match,
             PortId out) {
  FlowMod mod;
  mod.command = command;
  mod.priority = priority;
  mod.match = match;
  mod.actions = {Action::output(out)};
  return mod;
}

Direction make_direction(bool forward) {
  Direction d;
  d.in = forward ? 2 : 3;
  d.out = forward ? 3 : 2;
  d.profile.flow_count = kFlows;
  d.profile.web_percent = 20;
  if (forward) {
    d.profile.src_ip_base = pkt::ipv4(10, 0, 0, 1);
    d.profile.dst_ip_base = pkt::ipv4(10, 1, 0, 1);
  } else {
    d.profile.src_ip_base = pkt::ipv4(10, 1, 0, 1);
    d.profile.dst_ip_base = pkt::ipv4(10, 0, 0, 1);
    d.profile.base_src_port = 5000;
    d.profile.base_dst_port = 6000;
  }
  d.dst_base = d.profile.dst_ip_base & ~(kChurnBlock - 1);
  return d;
}

/// Policy above steering, as on the hop hostbench churns: a /28
/// destination and an exact L4 source port make the megaflows per-flow.
void install_policy(FlowTable& table, const Direction& d, Rng& rng) {
  const pkt::TrafficProfile& p = d.profile;
  const auto dst28 = static_cast<std::uint32_t>(
      (p.dst_ip_base & ~15u) + 16 * rng.next_below(kFlows / 16));
  const auto sport =
      static_cast<std::uint16_t>(p.base_src_port + rng.next_below(kFlows));
  for (const FlowMod& mod :
       {rule(FlowModCommand::kAdd, 140,
             Match{}.in_port(d.in).ip_proto(pkt::kIpProtoTcp).l4_dst(80),
             d.out),
        rule(FlowModCommand::kAdd, 130, Match{}.in_port(d.in).ip_dst(dst28, 28),
             d.out),
        rule(FlowModCommand::kAdd, 120, Match{}.in_port(d.in).l4_src(sport),
             d.out),
        rule(FlowModCommand::kAdd, 110,
             Match{}.in_port(d.in).ip_src(p.src_ip_base & 0xffff0000u, 16),
             d.out),
        rule(FlowModCommand::kAdd, 100, Match{}.in_port(d.in), d.out)}) {
    ASSERT_TRUE(table.apply(mod).is_ok());
  }
}

/// One churn FlowMod on `d`: ADD a /26 not yet live, or strictly DELETE a
/// live one (the same choice rule as hostbench's churn planner).
void churn_one(FlowTable& table, Direction& d, Rng& rng) {
  const bool add = d.live.size() < kLiveMin ||
                   (d.live.size() < kLiveMax && rng.chance(1, 2));
  std::uint32_t block = 0;
  if (add) {
    do {
      block = static_cast<std::uint32_t>(
          rng.next_below(kFlows / kChurnBlock + 1));
    } while (std::find(d.live.begin(), d.live.end(), block) != d.live.end());
    d.live.push_back(block);
  } else {
    const auto at = rng.next_below(d.live.size());
    block = d.live[at];
    d.live[at] = d.live.back();
    d.live.pop_back();
  }
  const Match match = Match{}.in_port(d.in).ip_dst(
      d.dst_base + block * kChurnBlock, kChurnPrefix);
  ASSERT_TRUE(table
                  .apply(rule(add ? FlowModCommand::kAdd
                                  : FlowModCommand::kDeleteStrict,
                              150, match, d.out))
                  .is_ok());
}

pkt::FlowKey key_of(const Direction& d, std::uint64_t flow) {
  const pkt::FrameSpec spec = d.profile.flow_spec(flow);
  pkt::FlowKey key;
  key.in_port = d.in;
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = spec.ip_proto;
  key.src_ip = spec.src_ip;
  key.dst_ip = spec.dst_ip;
  key.src_port = spec.src_port;
  key.dst_port = spec.dst_port;
  return key;
}

struct DrainWork {
  TierCounters counters;
  MegaflowStats megaflow;
  TierCounters big_burst;  ///< the window of the one 127-event drain
  std::uint64_t layout = 0;  ///< FNV-1a of every entry, in cache order
};

/// FNV-1a over each entry's mask, packed key and rule, subtable by
/// subtable in probe order and slot by slot: the cache's layout, which
/// decides every later capacity victim.
std::uint64_t layout_digest(const MegaflowCache& cache) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const MegaflowCache::EntryView& e : cache.entries()) {
    mix(e.mask.fields);
    mix(e.mask.ip_src_plen);
    mix(e.mask.ip_dst_plen);
    for (const std::uint64_t word : openflow::pack(e.key).words) mix(word);
    mix(e.rule);
  }
  return h;
}

DrainWork run_churn_stream(std::uint64_t seed) {
  exec::CostModel cost;
  FlowTable table;
  std::array<Direction, 2> dirs = {make_direction(true),
                                   make_direction(false)};
  Rng rule_rng(seed ^ 0x72756c6573ULL);
  for (const Direction& d : dirs) install_policy(table, d, rule_rng);
  DpClassifier dp(table, cost);
  exec::CycleMeter meter;

  const ZipfSampler zipf = ZipfSampler::fixed_population(kZipfS, kFlows);
  Rng pick_rng(seed);
  Rng churn_rng(seed ^ 0x636875726eULL);
  std::uint32_t churn_turn = 0;
  std::array<pkt::FlowKey, 32> keys{};
  std::array<std::uint32_t, 32> hashes{};
  std::array<LookupOutcome, 32> out{};
  DrainWork work;
  TierCounters before_big;
  for (std::uint32_t slice = 0; slice < kSlices; ++slice) {
    for (std::uint32_t b = 0; b < kBatchesPerSlice; ++b) {
      const Direction& d = dirs[b % 2];
      for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = key_of(d, zipf.draw(pick_rng, kFlows));
        hashes[i] = pkt::flow_key_hash(keys[i]);
      }
      dp.lookup_batch(keys, hashes, out, meter);
      if (slice == kBigBurstSlice + 1 && b == 0) {
        work.big_burst = dp.counters() - before_big;
      }
    }
    const std::uint32_t burst =
        slice == kBigBurstSlice
            ? static_cast<std::uint32_t>(MegaflowCache::kRevalidatorQueueLimit -
                                         1)
            : kBurst;
    if (slice == kBigBurstSlice) before_big = dp.counters();
    for (std::uint32_t n = 0; n < burst; ++n) {
      churn_one(table, dirs[churn_turn++ % dirs.size()], churn_rng);
    }
  }
  work.counters = dp.counters();
  work.megaflow = dp.megaflow().stats();
  work.layout = layout_digest(dp.megaflow());
  return work;
}

TEST(RevalidationWorkTest, PinnedChurnBurstsDrainTheSameWork) {
  const DrainWork w = run_churn_stream(7);
  // The big burst drained as one batch, without the overflow flush.
  EXPECT_EQ(w.counters.megaflow_invalidations, 0u);
  EXPECT_EQ(w.megaflow.queue_overflows, 0u);
  EXPECT_GT(w.big_burst.reval_entries_scanned, 0u);

  EXPECT_EQ(w.counters.megaflow_revalidations, 64'260u);
  EXPECT_EQ(w.megaflow.revalidated_kept, 63'851u);
  EXPECT_EQ(w.megaflow.revalidated_evicted, 409u);
  EXPECT_EQ(w.counters.reval_entries_scanned, 104'973u);
  EXPECT_EQ(w.megaflow.reval_term_tests, 144'893u);
  EXPECT_EQ(w.counters.subtables_skipped, 141u);
  EXPECT_EQ(w.counters.emc_revalidations, 34'332u);
  // The 127-event drain alone.
  EXPECT_EQ(w.big_burst.megaflow_revalidations, 2'555u);
  EXPECT_EQ(w.big_burst.reval_entries_scanned, 3'714u);
  EXPECT_EQ(w.big_burst.emc_revalidations, 1'105u);
  // The cache ran at its flow limit, and its layout, so every capacity
  // victim, is the one the scan left.
  EXPECT_EQ(w.megaflow.capacity_evictions, 4'734u);
  EXPECT_EQ(w.layout, 0xc80ad3037e186e4aULL);
}

/// The order the pinned stream cannot show: two evictions from one
/// subtable in one drain. A scan meets the suspects in slot order, and
/// after an eviction swap-fills the hole from the back it examines the
/// moved slot next, so the layout it leaves depends on that order.
TEST(RevalidationWorkTest, IndexedDrainEvictsInScanOrder) {
  const MaskSpec mask{.fields = openflow::kMatchInPort};
  const auto key = [](PortId port) {
    pkt::FlowKey k;
    k.in_port = port;
    return k;
  };
  const auto ports = [](const MegaflowCache& cache) {
    std::vector<PortId> out;
    for (const MegaflowCache::EntryView& e : cache.entries()) {
      out.push_back(e.key.in_port);
    }
    return out;
  };
  const auto remove = [](PortId port, RuleId rule, std::uint64_t version) {
    flowtable::TableChangeEvent event;
    event.command = FlowModCommand::kDeleteStrict;
    event.match = Match{}.in_port(port);
    event.version = version;
    event.removed = {rule};
    return event;
  };
  for (const auto& [victims, layout] :
       std::vector<std::pair<std::vector<PortId>, std::vector<PortId>>>{
           // Slots 1 and 2 evicted: port 5 fills slot 1, then port 4
           // fills slot 2.
           {{2, 3}, {1, 5, 4}},
           // Slot 1 evicted, and the port-5 slot that fills it is a
           // suspect too: it is examined next and evicted in turn.
           {{2, 5}, {1, 4, 3}}}) {
    MegaflowCache cache;
    for (PortId port = 1; port <= 5; ++port) {
      cache.insert(key(port), mask, 100 + port, 1);
    }
    // A first drain of the in_port shape indexes the subtable.
    cache.on_table_change(remove(9, 109, 2));
    ASSERT_EQ(cache.revalidate().entries_scanned, 5u);
    std::uint64_t version = 3;
    for (const PortId port : victims) {
      cache.on_table_change(remove(port, 100 + port, version++));
    }
    const MegaflowCache::RevalidateReport report = cache.revalidate();
    EXPECT_EQ(report.index_probes, victims.size());
    EXPECT_EQ(report.evicted, victims.size());
    EXPECT_EQ(ports(cache), layout);
  }
}

}  // namespace
}  // namespace hw::classifier
