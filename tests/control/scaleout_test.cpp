#include <gtest/gtest.h>

#include <cstdint>

#include "chain/chain.h"
#include "classifier/dp_classifier.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "openflow/messages.h"
#include "pkt/headers.h"
#include "vswitch/rss.h"

/// \file scaleout_test.cpp
/// Multi-PMD scale-out correctness (docs/SCALEOUT.md):
///   * RssTable unit behavior — round-robin seeding, in_port-blind
///     hashing, atomic (owner, generation) handoff;
///   * the EWMA auto-load-balancer's migration policy;
///   * the per-engine churn oracle — a FlowMod must invalidate suspect
///     cache entries on EVERY engine of a sharded pool with zero stale
///     serves and zero whole-cache flushes, including an engine whose
///     buckets are mid-rebalance;
///   * the chain-level regression — p2p detection and bypass setup still
///     fire when a chain's two directions hash to different engines (the
///     detector is flow-table-driven, so RSS never needs direction-
///     symmetric hashing).

namespace hw {
namespace {

using classifier::DpClassifier;
using classifier::DpClassifierConfig;
using flowtable::FlowTable;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using vswitch::RssConfig;
using vswitch::RssSharder;
using vswitch::RssTable;

TEST(RssTableTest, SeedsRoundRobinAcrossEngines) {
  RssTable table(8, 3);
  EXPECT_EQ(table.bucket_count(), 8u);
  EXPECT_EQ(table.engine_count(), 3u);
  for (std::uint32_t b = 0; b < 8; ++b) {
    EXPECT_EQ(table.slot(b).owner, b % 3);
    EXPECT_EQ(table.slot(b).generation, 0u);
  }
}

TEST(RssTableTest, HashIgnoresInPortSoOnePortSpreads) {
  pkt::FlowKey key;
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = pkt::kIpProtoUdp;
  key.src_ip = pkt::ipv4(10, 0, 0, 1);
  key.dst_ip = pkt::ipv4(10, 1, 0, 1);
  key.src_port = 1000;
  key.dst_port = 2000;
  key.in_port = 1;
  const std::uint32_t h1 = RssTable::hash(key);
  key.in_port = 5;
  // Same flow through any port lands in the same bucket: sharding is a
  // property of the flow, not of where it entered the switch.
  EXPECT_EQ(RssTable::hash(key), h1);
  // And a different 5-tuple moves (overwhelmingly) elsewhere.
  key.dst_port = 2001;
  EXPECT_NE(RssTable::hash(key), h1);
}

TEST(RssTableTest, MigrateHandsOffOwnerAndGenerationTogether) {
  RssTable table(4, 4);
  const auto before = table.slot(2);
  EXPECT_EQ(before.owner, 2u);
  EXPECT_EQ(before.generation, 0u);
  table.migrate(2, 0);
  const auto after = table.slot(2);
  // One packed atomic word: the owner read always belongs to the
  // generation read — no torn (stale owner, new generation) pair exists.
  EXPECT_EQ(after.owner, 0u);
  EXPECT_EQ(after.generation, 1u);
  table.migrate(2, 3);
  EXPECT_EQ(table.slot(2).owner, 3u);
  EXPECT_EQ(table.slot(2).generation, 2u);
  // Untouched buckets keep their seed assignment.
  EXPECT_EQ(table.slot(1).owner, 1u);
  EXPECT_EQ(table.slot(1).generation, 0u);
}

TEST(RssSharderTest, MigratesHotBucketsToColdEngine) {
  RssConfig config;
  config.enabled = true;
  config.buckets = 8;
  config.balance_interval = 64;
  config.ewma_alpha = 1.0;  // no history: this window decides alone
  config.imbalance_ratio = 1.1;
  config.max_migrations_per_check = 2;
  RssSharder sharder(config, 2);

  // All load on engine 0's buckets (0,2,4,6 by round-robin seed), most
  // of it concentrated in bucket 0.
  for (int i = 0; i < 60; ++i) sharder.table().record(0);
  for (int i = 0; i < 20; ++i) sharder.table().record(2);
  ASSERT_TRUE(sharder.note_distributed(80));
  sharder.rebalance();

  const auto stats = sharder.stats();
  EXPECT_EQ(stats.rebalance_checks, 1u);
  EXPECT_EQ(stats.rebalance_triggers, 1u);
  EXPECT_GE(stats.bucket_migrations, 1u);
  // The busiest bucket moved to the cold engine, generation bumped.
  EXPECT_EQ(sharder.table().slot(0).owner, 1u);
  EXPECT_EQ(sharder.table().slot(0).generation, 1u);
}

TEST(RssSharderTest, BalancedLoadNeverMigrates) {
  RssConfig config;
  config.enabled = true;
  config.buckets = 8;
  config.balance_interval = 64;
  config.ewma_alpha = 1.0;
  RssSharder sharder(config, 2);
  // Equal load on one bucket of each engine.
  for (int i = 0; i < 40; ++i) sharder.table().record(0);  // engine 0
  for (int i = 0; i < 40; ++i) sharder.table().record(1);  // engine 1
  ASSERT_TRUE(sharder.note_distributed(80));
  sharder.rebalance();
  EXPECT_EQ(sharder.stats().rebalance_checks, 1u);
  EXPECT_EQ(sharder.stats().rebalance_triggers, 0u);
  EXPECT_EQ(sharder.stats().bucket_migrations, 0u);
}

TEST(RssSharderTest, AutoBalanceOffNeverRequestsChecks) {
  RssConfig config;
  config.enabled = true;
  config.auto_balance = false;
  config.balance_interval = 8;
  RssSharder sharder(config, 2);
  EXPECT_FALSE(sharder.note_distributed(1'000'000));
  EXPECT_EQ(sharder.stats().rebalance_checks, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: per-engine churn oracle. One FlowTable, four subscribed
// classifiers (the multi-subscriber fan-out), warm caches everywhere,
// then a FlowMod that changes the verdict — every engine must serve the
// new verdict on its very next lookup (zero stale serves), each through
// its own precise revalidator (zero whole-cache flushes), including an
// engine whose bucket was migrated mid-churn.
// ---------------------------------------------------------------------------

pkt::FlowKey churn_key(std::uint16_t dst_port) {
  pkt::FlowKey key;
  key.in_port = 1;
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = pkt::kIpProtoUdp;
  key.src_ip = pkt::ipv4(192, 168, 0, 7);
  key.dst_ip = pkt::ipv4(10, 0, 0, 9);
  key.src_port = 1234;
  key.dst_port = dst_port;
  return key;
}

TEST(ShardedChurnTest, FlowModInvalidatesOnAllEnginesWithZeroStaleServes) {
  exec::CostModel cost;
  FlowTable table;

  constexpr std::uint32_t kEngines = 4;
  DpClassifier engine0(table, cost);
  DpClassifier engine1(table, cost);
  DpClassifierConfig nopf_config;
  nopf_config.megaflow.subtable_prefilter = false;
  DpClassifier engine2(table, cost, nopf_config);  // scans every subtable
  DpClassifier engine3(table, cost);
  DpClassifier* engines[kEngines] = {&engine0, &engine1, &engine2, &engine3};
  RssTable rss(16, kEngines);
  exec::CycleMeter meter;

  // Base rule: a /16 wildcard covering every churn key.
  FlowMod base;
  base.priority = 10;
  base.match.ip_dst(pkt::ipv4(10, 0, 0, 0), 16);
  base.actions = {Action::output(2)};
  auto base_result = table.apply(base);
  ASSERT_TRUE(base_result.is_ok());

  // Warm every engine's EMC + megaflow on its OWN sharded working set
  // (each engine sees only keys whose bucket it owns — the RSS split).
  std::vector<pkt::FlowKey> keys;
  for (std::uint16_t p = 2000; p < 2064; ++p) keys.push_back(churn_key(p));
  auto owner_of = [&rss](const pkt::FlowKey& key) {
    return rss.owner_of(RssTable::hash(key));
  };
  for (int round = 0; round < 3; ++round) {
    for (const pkt::FlowKey& key : keys) {
      DpClassifier* engine = engines[owner_of(key)];
      const auto out =
          engine->lookup(key, pkt::flow_key_hash(key), meter);
      ASSERT_NE(out.entry, nullptr);
    }
  }
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    ASSERT_GT(engines[e]->counters().emc_hits +
                  engines[e]->counters().megaflow_hits,
              0u)
        << "engine " << e << " cache never warmed — shard split broken?";
  }

  // Mid-rebalance: hand a slice of buckets to new owners between warmup
  // and churn, so some engines serve flows they never installed
  // megaflows for, and some hold now-orphaned cached entries.
  for (std::uint32_t b = 0; b < 16; b += 4) {
    rss.migrate(b, (rss.slot(b).owner + 1) % kEngines);
  }

  // Churn: a higher-priority rule shadowing the /16 for every key.
  FlowMod shadow;
  shadow.priority = 50;
  shadow.match.ip_dst(pkt::ipv4(10, 0, 0, 9), 32);
  shadow.actions = {Action::output(4)};
  auto shadow_result = table.apply(shadow);
  ASSERT_TRUE(shadow_result.is_ok());

  // Zero stale serves: the very next lookup on EVERY engine — routed by
  // the post-migration table — returns the oracle verdict.
  for (const pkt::FlowKey& key : keys) {
    const flowtable::FlowEntry* oracle = table.lookup(key);
    ASSERT_NE(oracle, nullptr);
    for (std::uint32_t e = 0; e < kEngines; ++e) {
      const auto out =
          engines[e]->lookup(key, pkt::flow_key_hash(key), meter);
      ASSERT_NE(out.entry, nullptr);
      ASSERT_EQ(out.entry->id, oracle->id)
          << "engine " << e << " served a stale verdict after FlowMod";
    }
  }

  for (std::uint32_t e = 0; e < kEngines; ++e) {
    const auto& counters = engines[e]->counters();
    // The fan-out reached this engine's own revalidator (coalesced
    // drains ran; suspect entries were re-checked)...
    EXPECT_GT(counters.reval_batches, 0u) << "engine " << e;
    EXPECT_GT(counters.megaflow_revalidations + counters.emc_revalidations,
              0u)
        << "engine " << e << ": FlowMod never revalidated this engine";
    // ...and precision held: repair, never a whole-cache flush.
    EXPECT_EQ(counters.megaflow_invalidations, 0u)
        << "engine " << e << ": churn must not cost a whole-cache flush";
  }
}

// ---------------------------------------------------------------------------
// Satellite: chain-level regression. RSS hashing is deliberately NOT
// direction-symmetric; the p2p detector is flow-table-driven, so bypass
// must fire even when the two directions of a chain ride different
// engines. The two direction keys below mirror ChainScenario's traffic
// profiles (fwd 10.0.0.1→10.1.0.1 1000→2000, rev 10.1.0.1→10.0.0.1
// 5000→6000, both UDP at flow_count=1).
// ---------------------------------------------------------------------------

pkt::FlowKey chain_direction_key(bool fwd) {
  pkt::FlowKey key;
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = pkt::kIpProtoUdp;
  key.src_ip = fwd ? pkt::ipv4(10, 0, 0, 1) : pkt::ipv4(10, 1, 0, 1);
  key.dst_ip = fwd ? pkt::ipv4(10, 1, 0, 1) : pkt::ipv4(10, 0, 0, 1);
  key.src_port = fwd ? 1000 : 5000;
  key.dst_port = fwd ? 2000 : 6000;
  return key;
}

TEST(ScaleoutChainTest, BypassFiresWhenDirectionsHashToDifferentEngines) {
  chain::ChainConfig config;
  config.vm_count = 2;
  config.flow_count = 1;
  config.engine_count = 4;
  config.rss.enabled = true;
  config.rss.buckets = 64;
  config.rss.auto_balance = false;  // keep the forced split stable
  config.enable_bypass = true;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());

  // Pin the two directions to different engines before any traffic.
  auto* sharder = chain.of().rss();
  ASSERT_NE(sharder, nullptr);
  RssTable& table = sharder->table();
  const std::uint32_t fwd_bucket =
      table.bucket_of(RssTable::hash(chain_direction_key(true)));
  const std::uint32_t rev_bucket =
      table.bucket_of(RssTable::hash(chain_direction_key(false)));
  ASSERT_NE(fwd_bucket, rev_bucket);
  table.migrate(fwd_bucket, 0);
  table.migrate(rev_bucket, 1);

  // p2p detection + bypass setup are flow-table-driven: they must fire
  // regardless of which engine carries which direction.
  EXPECT_TRUE(chain.wait_bypass_ready());
  EXPECT_EQ(chain.of().bypass_manager().active_links(),
            chain.expected_links());

  chain.warmup(2'000'000);
  const chain::ChainMetrics metrics = chain.measure(5'000'000);
  EXPECT_GT(metrics.delivered_fwd, 0u);
  EXPECT_GT(metrics.delivered_rev, 0u);
  EXPECT_TRUE(chain.drain());
}

TEST(ScaleoutChainTest, SplitDirectionsSpreadEnginesWithoutBypass) {
  chain::ChainConfig config;
  config.vm_count = 2;
  config.flow_count = 1;
  config.engine_count = 4;
  config.rss.enabled = true;
  config.rss.buckets = 64;
  config.rss.auto_balance = false;
  config.enable_bypass = false;  // keep all traffic on the engines
  // Below saturation: at core speed the home engine out-runs the pinned
  // consumers and steering queues legitimately overflow (rss_queue_drops
  // is exactly the counter for that). Paced load must steer losslessly.
  config.gen_rate_pps = 500'000;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());

  auto* sharder = chain.of().rss();
  ASSERT_NE(sharder, nullptr);
  RssTable& table = sharder->table();
  table.migrate(table.bucket_of(RssTable::hash(chain_direction_key(true))),
                0);
  table.migrate(table.bucket_of(RssTable::hash(chain_direction_key(false))),
                1);

  chain.warmup(2'000'000);
  const chain::ChainMetrics metrics = chain.measure(5'000'000);
  EXPECT_GT(metrics.delivered_fwd, 0u);
  EXPECT_GT(metrics.delivered_rev, 0u);
  EXPECT_GT(metrics.rss_distributed, 0u);
  EXPECT_EQ(metrics.rss_queue_drops, 0u);

  // Both pinned engines classified traffic: the split is real.
  int engines_with_rx = 0;
  for (const auto& engine : chain.of().engines()) {
    if (engine->counters().rx_packets > 0) ++engines_with_rx;
  }
  EXPECT_GE(engines_with_rx, 2);
  EXPECT_GT(chain.of().engines()[0]->counters().rx_packets, 0u);
  EXPECT_GT(chain.of().engines()[1]->counters().rx_packets, 0u);
  EXPECT_TRUE(chain.drain());
}

}  // namespace
}  // namespace hw
