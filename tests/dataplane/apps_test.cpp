#include <gtest/gtest.h>

#include <array>

#include "chain/chain.h"
#include "common/log.h"
#include "exec/runtime.h"
#include "mbuf/mempool.h"
#include "nic/sim_nic.h"
#include "pmd/channel.h"
#include "pmd/control.h"
#include "pmd/guest_pmd.h"
#include "pmd/shared_stats.h"
#include "shm/shm.h"

namespace hw::vm {
namespace {

/// App behaviour is exercised through small chains (the apps need the
/// full port plumbing anyway); this keeps the tests on public APIs.
class AppsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kError); }
};

TEST_F(AppsTest, ForwarderMovesBothDirections) {
  chain::ChainConfig config;
  config.vm_count = 3;  // vm1 runs a ForwarderApp
  config.enable_bypass = false;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  chain.warmup(1'000'000);
  const auto metrics = chain.measure(3'000'000);
  EXPECT_GT(metrics.delivered_fwd, 0u);
  EXPECT_GT(metrics.delivered_rev, 0u);
}

TEST_F(AppsTest, UnidirectionalChainOnlyForward) {
  chain::ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = false;
  config.bidirectional = false;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  chain.warmup(1'000'000);
  const auto metrics = chain.measure(3'000'000);
  EXPECT_GT(metrics.delivered_fwd, 0u);
  EXPECT_EQ(metrics.delivered_rev, 0u);
}

TEST_F(AppsTest, GeneratorRateLimitIsHonored) {
  // The 8-VM chain at a 20 ns epoch overspends its epochs, so a pacer's
  // now_ns() reading can step back by a few ns between polls.
  struct Input {
    std::uint32_t vm_count;
    TimeNs epoch_ns;
    TimeNs warmup_ns;
    TimeNs window_ns;
  };
  for (const Input in : {Input{2, 1000, 2'000'000, 10'000'000},
                         Input{8, 20, 500'000, 1'000'000}}) {
    SCOPED_TRACE(testing::Message() << in.vm_count << " VMs, epoch "
                                    << in.epoch_ns << " ns");
    chain::ChainConfig config;
    config.vm_count = in.vm_count;
    config.epoch_ns = in.epoch_ns;
    config.enable_bypass = false;
    config.gen_rate_pps = 1'000'000;  // 1 Mpps per direction
    chain::ChainScenario chain(config);
    ASSERT_TRUE(chain.build().is_ok());
    chain.warmup(in.warmup_ns);
    const auto metrics = chain.measure(in.window_ns);
    EXPECT_NEAR(metrics.mpps_fwd, 1.0, 0.08);
    EXPECT_NEAR(metrics.mpps_rev, 1.0, 0.08);
  }
}

TEST_F(AppsTest, ExtraCyclesSlowTheChain) {
  double fast = 0;
  double slow = 0;
  for (const std::uint32_t extra : {0u, 2000u}) {
    chain::ChainConfig config;
    config.vm_count = 3;
    config.enable_bypass = true;
    config.cost.vm_app_per_pkt += extra;  // only forwarders charge it
    chain::ChainScenario chain(config);
    ASSERT_TRUE(chain.build().is_ok());
    ASSERT_TRUE(chain.wait_bypass_ready());
    chain.warmup(1'000'000);
    (extra == 0 ? fast : slow) = chain.measure(4'000'000).mpps_total;
  }
  // 2000 extra cycles/packet ≈ heavier VNF: must be clearly slower.
  EXPECT_LT(slow, fast / 2);
}

TEST_F(AppsTest, SinksRecordLatencyUnderTraffic) {
  chain::ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = false;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  chain.warmup(2'000'000);
  const auto metrics = chain.measure(3'000'000);
  EXPECT_GT(metrics.latency_mean_ns, 0.0);
  EXPECT_GE(metrics.latency_p99_ns, metrics.latency_p50_ns);
  EXPECT_GE(metrics.latency_max_ns, metrics.latency_p99_ns / 2);
}

TEST_F(AppsTest, SinkSamplesFramesGeneratedInTheFirstEpoch) {
  // ts_ns == 0 is a real stamp: every frame generated in the first epoch
  // carries it. Generated frames are numbered from 1, so the sink must
  // take a latency sample from every one of them.
  chain::ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = false;
  config.bidirectional = false;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  ASSERT_EQ(chain.runtime().epoch_start_ns(), 0);
  chain.runtime().step_epoch();  // the head generates in epoch 0 only
  chain.head_endpoint()->set_generate(false);
  chain.warmup(1'000'000);
  const GenSinkApp* tail = chain.tail_endpoint();
  ASSERT_GT(tail->counters().delivered, 0u);
  EXPECT_EQ(tail->endpoint().latency().count(), tail->counters().delivered);
}

TEST_F(AppsTest, SteadyStatePathDeliversInOrder) {
  // Path transitions may reorder once (normal-channel backlog vs new
  // bypass traffic); steady state afterwards must be strictly in order.
  chain::ChainConfig config;
  config.vm_count = 3;
  config.enable_bypass = true;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  ASSERT_TRUE(chain.wait_bypass_ready());
  chain.warmup(5'000'000);
  const std::uint64_t head_before = chain.head_endpoint()->counters().reorders;
  const std::uint64_t tail_before = chain.tail_endpoint()->counters().reorders;
  chain.warmup(5'000'000);
  EXPECT_EQ(chain.head_endpoint()->counters().reorders, head_before);
  EXPECT_EQ(chain.tail_endpoint()->counters().reorders, tail_before);
}

TEST_F(AppsTest, StarvedEndpointsCountOneAllocFailurePerStarvedPoll) {
  // Both endpoint owners feed `gen_alloc_failures`, which counts starved
  // generator polls: a burst the pool could not fill counts one, however
  // many frames it lacked. The app and the NIC here each starve a
  // 4-buffer pool, twice: short, then empty.
  constexpr PortId kPort = 3;
  constexpr VmId kVm = 1;
  shm::ShmManager shm;
  auto stats_region = shm.create(pmd::SharedStats::region_name(),
                                 pmd::SharedStats::bytes_required());
  pmd::SharedStats stats =
      pmd::SharedStats::create_in(*stats_region.value()).value();
  auto normal_region = shm.create(pmd::normal_channel_region(kPort),
                                  pmd::ChannelView::bytes_required(64));
  pmd::ChannelView normal =
      pmd::ChannelView::create_in(*normal_region.value(), 64, kPort, kPort, 1)
          .value();
  auto ctrl_region = shm.create(pmd::control_channel_region(kPort),
                                pmd::ControlChannel::bytes_required());
  ASSERT_TRUE(pmd::ControlChannel::create_in(*ctrl_region.value()).is_ok());
  ASSERT_TRUE(shm.plug(pmd::normal_channel_region(kPort), kVm).is_ok());
  ASSERT_TRUE(shm.plug(pmd::control_channel_region(kPort), kVm).is_ok());
  exec::CostModel cost;
  auto port = pmd::GuestPmd::attach(shm, kVm, kPort, stats, cost);
  ASSERT_TRUE(port.is_ok());
  pmd::GuestPmd pmd = std::move(port).take();
  exec::SimRuntime runtime({.epoch_ns = 1000, .cost = cost});
  const pkt::TrafficProfile profile;

  mbuf::Mempool app_pool("app", 4);
  GenSinkApp app("gen", pmd, app_pool, profile, runtime, cost,
                 /*generate=*/true, /*burst=*/32);
  exec::CycleMeter meter;
  EXPECT_EQ(app.poll(meter), 4u);
  EXPECT_EQ(app.poll(meter), 0u);

  mbuf::Mempool nic_pool("nic", 4);
  nic::SimNic nic("nic", {}, runtime, cost, nic_pool, profile);
  runtime.step_epoch();  // 1 us of wire time: tokens for 14 frames
  EXPECT_EQ(nic.poll(meter), 4u);
  EXPECT_EQ(nic.poll(meter), 0u);

  const pkt::EndpointCounters& wire = nic.endpoint().counters();
  EXPECT_EQ(app.counters().alloc_failures, 2u);
  EXPECT_EQ(wire.alloc_failures, 2u);
  // Each short burst is also one failure in the pool's own count.
  EXPECT_EQ(app_pool.stats().alloc_failures, nic_pool.stats().alloc_failures);

  std::array<mbuf::Mbuf*, 4> burst{};
  nic_pool.free_bulk(std::span<mbuf::Mbuf* const>(
      burst.data(), nic.host_rx().dequeue_burst(burst)));
  EXPECT_EQ(nic_pool.in_use(), 0u);
  for (pmd::MbufRing* ring : {&normal.a2b(), &normal.b2a()}) {
    for (mbuf::Mbuf* buf = nullptr; ring->dequeue(buf);) app_pool.free(buf);
  }
  EXPECT_EQ(app_pool.in_use(), 0u);
}

}  // namespace
}  // namespace hw::vm
