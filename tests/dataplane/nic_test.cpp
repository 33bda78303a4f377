#include <gtest/gtest.h>

#include "common/units.h"
#include "exec/runtime.h"
#include "nic/sim_nic.h"
#include "pkt/endpoint.h"

namespace hw::nic {
namespace {

class NicTest : public ::testing::Test {
 protected:
  NicTest()
      : pool_("p", 8192),
        runtime_({.epoch_ns = 1000, .cost = {}}) {}

  pkt::TrafficProfile profile(std::uint32_t frame_len) {
    pkt::TrafficProfile p;
    p.frame_len = frame_len;
    p.flow_count = 4;
    return p;
  }

  mbuf::Mempool pool_;
  exec::SimRuntime runtime_;
};

TEST_F(NicTest, IngressCapsAtLineRate64B) {
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_, profile(64));
  pkt::Endpoint drain(profile(64), pool_, runtime_, /*generate=*/false);
  runtime_.add_context(&nic);

  // Consume the host ring continuously so the ring never backpressures.
  std::uint64_t consumed = 0;
  mbuf::Mbuf* burst[64];
  for (int epoch = 0; epoch < 10'000; ++epoch) {  // 10 ms virtual
    runtime_.step_epoch();
    const std::size_t n = nic.host_rx().dequeue_burst(burst);
    drain.sink(std::span<mbuf::Mbuf* const>(burst, n));
    consumed += n;
  }
  const double mpps = to_mpps(consumed, 10'000'000);
  EXPECT_NEAR(mpps, 14.88, 0.2);  // 10GbE @64B line rate
  EXPECT_EQ(nic.counters().rx_missed, 0u);
}

TEST_F(NicTest, IngressCapsAtLineRate1518B) {
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_, profile(1518));
  pkt::Endpoint drain(profile(1518), pool_, runtime_, /*generate=*/false);
  runtime_.add_context(&nic);

  std::uint64_t consumed = 0;
  mbuf::Mbuf* burst[64];
  for (int epoch = 0; epoch < 10'000; ++epoch) {
    runtime_.step_epoch();
    const std::size_t n = nic.host_rx().dequeue_burst(burst);
    drain.sink(std::span<mbuf::Mbuf* const>(burst, n));
    consumed += n;
  }
  const double pps = static_cast<double>(consumed) / 0.01;
  EXPECT_NEAR(pps, line_rate_pps(10'000'000'000ULL, 1518), 20'000);
}

TEST_F(NicTest, RxMissedWhenHostRingFull) {
  NicConfig config;
  config.ring_capacity = 64;  // tiny host ring, nobody drains it
  SimNic nic("nic", config, runtime_, runtime_.cost(), pool_, profile(64));
  runtime_.add_context(&nic);
  runtime_.run_for(1'000'000);  // 1 ms
  EXPECT_GT(nic.counters().rx_missed, 0u);
  EXPECT_EQ(nic.host_rx().size(), 64u);
  // Conservation: everything generated is in the ring or was freed.
  EXPECT_EQ(pool_.in_use(), 64u);
}

TEST_F(NicTest, EgressDeliversToSinkAtLineRate) {
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_, profile(64),
             /*generate=*/false);
  const pkt::Endpoint& sink = nic.endpoint();
  runtime_.add_context(&nic);

  // Feed the host tx ring faster than the wire can drain.
  mbuf::Mbuf* burst[32];
  std::uint64_t offered = 0;
  for (int epoch = 0; epoch < 10'000; ++epoch) {
    const std::size_t got = pool_.alloc_bulk(burst);
    for (std::size_t i = 0; i < got; ++i) burst[i]->data_len = 64;
    const std::size_t queued = nic.host_tx().enqueue_burst(
        std::span<mbuf::Mbuf* const>(burst, got));
    offered += queued;
    for (std::size_t i = queued; i < got; ++i) pool_.free(burst[i]);
    runtime_.step_epoch();
  }
  const double mpps = to_mpps(sink.counters().delivered, 10'000'000);
  EXPECT_NEAR(mpps, 14.88, 0.3);
  EXPECT_GT(offered, sink.counters().delivered);  // wire was the bottleneck
}

TEST_F(NicTest, SinkRecordsLatencyAndOrder) {
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_, profile(64),
             /*generate=*/false);
  const pkt::Endpoint& sink = nic.endpoint();
  runtime_.add_context(&nic);

  mbuf::Mbuf* a = pool_.alloc();
  mbuf::Mbuf* b = pool_.alloc();
  a->data_len = b->data_len = 64;
  a->seq = 2;  // out of order on purpose
  b->seq = 1;
  a->ts_ns = 0;
  b->ts_ns = 0;
  mbuf::Mbuf* const frames[2] = {a, b};
  ASSERT_EQ(nic.host_tx().enqueue_burst(frames), 2u);
  runtime_.run_for(10'000);
  EXPECT_EQ(sink.counters().delivered, 2u);
  EXPECT_EQ(sink.counters().reorders, 1u);
  EXPECT_EQ(sink.latency().count(), 2u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(NicTest, SinkTakesNoLatencySampleFromUnstampedFrames) {
  // A packet-out leaves Mbuf::reset() with seq 0 and ts_ns 0: no
  // generator stamped it, so it is counted but adds no latency sample.
  pkt::Endpoint endpoint(profile(64), pool_, runtime_, /*generate=*/false);
  runtime_.run_for(10'000);  // a bogus sample would read the whole 10 us
  mbuf::Mbuf* frame = pool_.alloc();
  frame->reset();
  frame->data_len = 64;
  mbuf::Mbuf* const frames[1] = {frame};
  endpoint.sink(frames);
  EXPECT_EQ(endpoint.counters().delivered, 1u);
  EXPECT_EQ(endpoint.latency().count(), 0u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(NicTest, StoppedGenerationStopsIngress) {
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_, profile(64));
  runtime_.add_context(&nic);
  runtime_.run_for(100'000);
  // Offered, not generated: the undrained host ring fills within 100 us,
  // after which the port accepts nothing whether or not the wire offers.
  const std::uint64_t before = nic.endpoint().workload_stats().offered;
  EXPECT_GT(before, 0u);
  nic.endpoint().set_generate(false);
  runtime_.run_for(100'000);
  EXPECT_EQ(nic.endpoint().workload_stats().offered, before);
}

TEST_F(NicTest, SourceStampsSequencesAndTimestamps) {
  pkt::Endpoint source(profile(64), pool_, runtime_);
  mbuf::Mbuf* out[8];
  const std::size_t n = source.generate(out);
  ASSERT_EQ(n, 8u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i]->seq, i + 1);
    EXPECT_EQ(out[i]->data_len, 64u);
  }
  EXPECT_EQ(source.workload_stats().offered, 8u);
  pool_.free_bulk(std::span<mbuf::Mbuf* const>(out, n));
}

TEST_F(NicTest, SourceHandlesPoolExhaustion) {
  mbuf::Mempool tiny("tiny", 4);
  pkt::Endpoint source(profile(64), tiny, runtime_);
  mbuf::Mbuf* out[16];
  const std::size_t n = source.generate(out);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(source.counters().alloc_failures, 1u);
  tiny.free_bulk(std::span<mbuf::Mbuf* const>(out, n));
}

}  // namespace
}  // namespace hw::nic
