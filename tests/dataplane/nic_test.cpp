#include <gtest/gtest.h>

#include "common/units.h"
#include "exec/runtime.h"
#include "nic/sim_nic.h"

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
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_);
  TrafficSource source("gen", pool_, profile(64), runtime_);
  TrafficSink drain("drain", pool_, runtime_);
  nic.attach_source(&source);
  runtime_.add_context(&nic);

  // Consume the host ring continuously so the ring never backpressures.
  std::uint64_t consumed = 0;
  mbuf::Mbuf* burst[64];
  for (int epoch = 0; epoch < 10'000; ++epoch) {  // 10 ms virtual
    runtime_.step_epoch();
    const std::size_t n = nic.host_rx().dequeue_burst(burst);
    drain.consume(std::span<mbuf::Mbuf* const>(burst, n));
    consumed += n;
  }
  const double mpps = to_mpps(consumed, 10'000'000);
  EXPECT_NEAR(mpps, 14.88, 0.2);  // 10GbE @64B line rate
  EXPECT_EQ(nic.counters().rx_missed, 0u);
}

TEST_F(NicTest, IngressCapsAtLineRate1518B) {
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_);
  TrafficSource source("gen", pool_, profile(1518), runtime_);
  TrafficSink drain("drain", pool_, runtime_);
  nic.attach_source(&source);
  runtime_.add_context(&nic);

  std::uint64_t consumed = 0;
  mbuf::Mbuf* burst[64];
  for (int epoch = 0; epoch < 10'000; ++epoch) {
    runtime_.step_epoch();
    const std::size_t n = nic.host_rx().dequeue_burst(burst);
    drain.consume(std::span<mbuf::Mbuf* const>(burst, n));
    consumed += n;
  }
  const double pps = static_cast<double>(consumed) / 0.01;
  EXPECT_NEAR(pps, line_rate_pps(10'000'000'000ULL, 1518), 20'000);
}

TEST_F(NicTest, RxMissedWhenHostRingFull) {
  NicConfig config;
  config.ring_capacity = 64;  // tiny host ring, nobody drains it
  SimNic nic("nic", config, runtime_, runtime_.cost(), pool_);
  TrafficSource source("gen", pool_, profile(64), runtime_);
  nic.attach_source(&source);
  runtime_.add_context(&nic);
  runtime_.run_for(1'000'000);  // 1 ms
  EXPECT_GT(nic.counters().rx_missed, 0u);
  EXPECT_EQ(nic.host_rx().size(), 64u);
  // Conservation: everything generated is in the ring or was freed.
  EXPECT_EQ(pool_.in_use(), 64u);
}

TEST_F(NicTest, EgressDeliversToSinkAtLineRate) {
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_);
  TrafficSink sink("sink", pool_, runtime_);
  nic.attach_sink(&sink);
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
  const double mpps = to_mpps(sink.received(), 10'000'000);
  EXPECT_NEAR(mpps, 14.88, 0.3);
  EXPECT_GT(offered, sink.received());  // wire was the bottleneck
}

TEST_F(NicTest, SinkRecordsLatencyAndOrder) {
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_);
  TrafficSink sink("sink", pool_, runtime_);
  nic.attach_sink(&sink);
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
  EXPECT_EQ(sink.received(), 2u);
  EXPECT_EQ(sink.reorders(), 1u);
  EXPECT_EQ(sink.latency().count(), 2u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(NicTest, SinkTakesNoLatencySampleFromUnstampedFrames) {
  // A packet-out leaves Mbuf::reset() with seq 0 and ts_ns 0: no
  // generator stamped it, so it is counted but adds no latency sample.
  TrafficSink sink("sink", pool_, runtime_);
  runtime_.run_for(10'000);  // a bogus sample would read the whole 10 us
  mbuf::Mbuf* frame = pool_.alloc();
  frame->reset();
  frame->data_len = 64;
  mbuf::Mbuf* const frames[1] = {frame};
  sink.consume(frames);
  EXPECT_EQ(sink.received(), 1u);
  EXPECT_EQ(sink.latency().count(), 0u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(NicTest, DetachedSourceStopsIngress) {
  SimNic nic("nic", {}, runtime_, runtime_.cost(), pool_);
  TrafficSource source("gen", pool_, profile(64), runtime_);
  nic.attach_source(&source);
  runtime_.add_context(&nic);
  runtime_.run_for(100'000);
  const std::uint64_t before = nic.counters().rx_admitted;
  EXPECT_GT(before, 0u);
  nic.attach_source(nullptr);
  runtime_.run_for(100'000);
  EXPECT_EQ(nic.counters().rx_admitted, before);
}

TEST_F(NicTest, SourceStampsSequencesAndTimestamps) {
  TrafficSource source("gen", pool_, profile(64), runtime_);
  mbuf::Mbuf* out[8];
  const std::size_t n = source.produce(out);
  ASSERT_EQ(n, 8u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i]->seq, i + 1);
    EXPECT_EQ(out[i]->data_len, 64u);
  }
  EXPECT_EQ(source.generated(), 8u);
  pool_.free_bulk(std::span<mbuf::Mbuf* const>(out, n));
}

TEST_F(NicTest, SourceHandlesPoolExhaustion) {
  mbuf::Mempool tiny("tiny", 4);
  TrafficSource source("gen", tiny, profile(64), runtime_);
  mbuf::Mbuf* out[16];
  const std::size_t n = source.produce(out);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(source.alloc_failures(), 1u);
  tiny.free_bulk(std::span<mbuf::Mbuf* const>(out, n));
}

}  // namespace
}  // namespace hw::nic
