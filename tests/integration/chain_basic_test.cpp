#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "chain/chain.h"
#include "common/log.h"

namespace hw::chain {
namespace {

class ChainBasicTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }
};

TEST_F(ChainBasicTest, VanillaMemoryChainForwards) {
  ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = false;
  ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());

  chain.warmup(2'000'000);  // 2 ms virtual
  const ChainMetrics metrics = chain.measure(5'000'000);

  EXPECT_GT(metrics.delivered_fwd, 0u);
  EXPECT_GT(metrics.delivered_rev, 0u);
  EXPECT_EQ(metrics.bypass_links, 0u);
  // Every delivered frame crossed the switch.
  EXPECT_GT(metrics.switch_rx_packets, 0u);
}

TEST_F(ChainBasicTest, BypassMemoryChainEstablishesAndForwards) {
  ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = true;
  ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());

  ASSERT_TRUE(chain.wait_bypass_ready());
  EXPECT_EQ(chain.of().bypass_manager().active_links(), 2u);

  chain.warmup(2'000'000);
  const ChainMetrics metrics = chain.measure(5'000'000);

  EXPECT_GT(metrics.delivered_fwd, 0u);
  EXPECT_GT(metrics.delivered_rev, 0u);
  EXPECT_EQ(metrics.bypass_links, 2u);
  // With both directions bypassed, the switch engines see (almost) no
  // traffic in the measurement window.
  EXPECT_EQ(metrics.switch_rx_packets, 0u);
}

TEST_F(ChainBasicTest, BypassBeatsVanillaOnLongChain) {
  double mpps_vanilla = 0;
  double mpps_bypass = 0;
  for (const bool bypass : {false, true}) {
    ChainConfig config;
    config.vm_count = 5;
    config.enable_bypass = bypass;
    ChainScenario chain(config);
    ASSERT_TRUE(chain.build().is_ok());
    ASSERT_TRUE(chain.wait_bypass_ready());
    chain.warmup(2'000'000);
    const ChainMetrics metrics = chain.measure(5'000'000);
    (bypass ? mpps_bypass : mpps_vanilla) = metrics.mpps_total;
  }
  EXPECT_GT(mpps_bypass, 2.0 * mpps_vanilla)
      << "bypass=" << mpps_bypass << " vanilla=" << mpps_vanilla;
}

TEST_F(ChainBasicTest, MempoolConservesAfterDrain) {
  // One drain() path for both topologies: it stops the generator of both
  // endpoints, whether they sit in the end VMs or behind the NICs.
  for (const bool use_nics : {false, true}) {
    SCOPED_TRACE(use_nics ? "NIC-fed chain" : "memory-only chain");
    ChainConfig config;
    config.vm_count = 3;
    config.use_nics = use_nics;
    config.enable_bypass = true;
    ChainScenario chain(config);
    ASSERT_TRUE(chain.build().is_ok());
    ASSERT_TRUE(chain.wait_bypass_ready());
    chain.warmup(5'000'000);
    EXPECT_TRUE(chain.drain()) << "in_use=" << chain.pool().in_use();
    // Generation stays off: a later window delivers nothing, and the pool
    // stays empty.
    const ChainMetrics after = chain.measure(1'000'000);
    EXPECT_EQ(after.delivered_fwd + after.delivered_rev, 0u);
    EXPECT_EQ(chain.pool().in_use(), 0u);
  }
}

TEST_F(ChainBasicTest, BackToBackWindowsSumToOneWindow) {
  // measure() reports each field as the change in a cumulative total
  // over its window. Two identical deterministic scenarios: one measures
  // 2 ms, the other two back-to-back 1 ms windows. Every additive field
  // of the two short windows must sum to the long window's.
  struct Input {
    const char* name;
    ChainConfig config;
    bool drain_pool;  ///< hold every free mbuf so the generators starve
  };
  // Two flows over two RSS engines: one engine's queue overflows (drops,
  // rss_queue_drops) and the balancer migrates a bucket.
  ChainConfig sharded;
  sharded.enable_bypass = false;
  sharded.engine_count = 2;
  sharded.rss.enabled = true;
  sharded.flow_count = 2;
  // Poisson flow churn (arrivals, departures) on a pool held empty
  // (alloc failures); its flows spread over the megaflow tier.
  ChainConfig churn;
  churn.vm_count = 3;
  churn.enable_bypass = false;
  churn.flow_count = 64;
  churn.workload.churn = pkt::ChurnModel::kPoisson;
  churn.workload.arrival_per_sec = 2'000'000;

  std::map<std::string, std::uint64_t> largest;  // per field, over inputs
  for (const Input& input : {Input{"rss-sharded vanilla", sharded, false},
                             Input{"poisson churn", churn, true}}) {
    SCOPED_TRACE(input.name);
    ChainScenario whole(input.config);
    ChainScenario split(input.config);
    ChainScenario* const chains[] = {&whole, &split};
    std::vector<mbuf::Mbuf*> held[2];
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(chains[i]->build().is_ok());
      chains[i]->warmup(1'000'000);
      if (input.drain_pool) {
        held[i].resize(chains[i]->pool().capacity());
        held[i].resize(chains[i]->pool().alloc_bulk(held[i]));
      }
    }
    const ChainMetrics w = whole.measure(2'000'000);
    const ChainMetrics a = split.measure(1'000'000);
    const ChainMetrics b = split.measure(1'000'000);

    const auto check = [&](const char* field, std::uint64_t long_window,
                           std::uint64_t first, std::uint64_t second) {
      EXPECT_EQ(first + second, long_window) << field;
      largest[field] = std::max(largest[field], long_window);
    };
    check("duration_ns", w.duration_ns, a.duration_ns, b.duration_ns);
    check("delivered_fwd", w.delivered_fwd, a.delivered_fwd,
          b.delivered_fwd);
    check("delivered_rev", w.delivered_rev, a.delivered_rev,
          b.delivered_rev);
    check("switch_rx_packets", w.switch_rx_packets, a.switch_rx_packets,
          b.switch_rx_packets);
    check("drops", w.drops, a.drops, b.drops);
    for (const classifier::TierCounterField& f :
         classifier::kTierCounterFields) {
      check(f.name, w.tiers.*f.member, a.tiers.*f.member, b.tiers.*f.member);
    }
    check("rss_distributed", w.rss_distributed, a.rss_distributed,
          b.rss_distributed);
    check("rss_queue_drops", w.rss_queue_drops, a.rss_queue_drops,
          b.rss_queue_drops);
    check("rebalance_checks", w.rebalance_checks, a.rebalance_checks,
          b.rebalance_checks);
    check("bucket_migrations", w.bucket_migrations, a.bucket_migrations,
          b.bucket_migrations);
    check("offered_arrivals", w.offered_arrivals, a.offered_arrivals,
          b.offered_arrivals);
    check("offered_departures", w.offered_departures, a.offered_departures,
          b.offered_departures);
    check("gen_alloc_failures", w.gen_alloc_failures, a.gen_alloc_failures,
          b.gen_alloc_failures);

    for (int i = 0; i < 2; ++i) chains[i]->pool().free_bulk(held[i]);
  }
  // The inputs exercise every window field, not just zeros.
  for (const char* field :
       {"delivered_fwd", "delivered_rev", "switch_rx_packets", "drops",
        "emc_hits", "megaflow_hits", "rss_distributed", "rss_queue_drops",
        "rebalance_checks", "bucket_migrations", "offered_arrivals",
        "offered_departures", "gen_alloc_failures"}) {
    EXPECT_GT(largest[field], 0u) << field;
  }
}

TEST_F(ChainBasicTest, NicChainRespectsLineRate) {
  ChainConfig config;
  config.vm_count = 1;
  config.use_nics = true;
  config.enable_bypass = true;
  config.engine_count = 2;
  ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  ASSERT_TRUE(chain.wait_bypass_ready());  // no links expected for N=1
  chain.warmup(2'000'000);
  const ChainMetrics metrics = chain.measure(5'000'000);

  EXPECT_GT(metrics.delivered_fwd, 0u);
  // 64 B @ 10 GbE caps at 14.88 Mpps per direction.
  EXPECT_LE(metrics.mpps_fwd, 14.9);
  EXPECT_LE(metrics.mpps_rev, 14.9);
}

}  // namespace
}  // namespace hw::chain
