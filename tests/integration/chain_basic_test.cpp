#include <gtest/gtest.h>

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
