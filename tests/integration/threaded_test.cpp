#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/log.h"
#include "exec/runtime.h"
#include "mbuf/mempool.h"
#include "pkt/packet.h"
#include "vswitch/of_switch.h"

namespace hw {
namespace {

/// Proof that the component code is genuinely thread-safe: the same
/// OfSwitch/ring/mempool objects driven by real threads (ThreadedRuntime)
/// instead of virtual cores. Volumes are tiny — this host may have a
/// single CPU — but every cross-thread handoff path is exercised:
/// producer thread → SPSC ring → switch PMD thread → SPSC ring → consumer
/// thread, with lock-free mempool alloc/free on both sides.

class ProducerApp final : public exec::Context {
 public:
  ProducerApp(vswitch::DpdkrSwitchPort& port, mbuf::Mempool& pool)
      : port_(&port), pool_(&pool) {}

  std::string_view name() const noexcept override { return "producer"; }

  std::uint32_t poll(exec::CycleMeter&) override {
    mbuf::Mbuf* buf = pool_->alloc();
    if (buf == nullptr) return 0;
    pkt::FrameSpec spec;
    if (!pkt::build_frame(*buf, spec)) {
      pool_->free(buf);
      return 0;
    }
    // VM → switch direction of the normal channel.
    if (port_->channel().b2a().enqueue(buf)) {
      sent.fetch_add(1, std::memory_order_relaxed);
      return 1;
    }
    pool_->free(buf);
    return 0;
  }

  std::atomic<std::uint64_t> sent{0};

 private:
  vswitch::DpdkrSwitchPort* port_;
  mbuf::Mempool* pool_;
};

class ConsumerApp final : public exec::Context {
 public:
  ConsumerApp(vswitch::DpdkrSwitchPort& port, mbuf::Mempool& pool)
      : port_(&port), pool_(&pool) {}

  std::string_view name() const noexcept override { return "consumer"; }

  std::uint32_t poll(exec::CycleMeter&) override {
    mbuf::Mbuf* burst[16];
    const std::size_t n = port_->channel().a2b().dequeue_burst(burst);
    if (n == 0) return 0;
    pool_->free_bulk(std::span<mbuf::Mbuf* const>(burst, n));
    received.fetch_add(n, std::memory_order_relaxed);
    return static_cast<std::uint32_t>(n);
  }

  std::atomic<std::uint64_t> received{0};

 private:
  vswitch::DpdkrSwitchPort* port_;
  mbuf::Mempool* pool_;
};

/// Producer → switch → consumer on real threads until 5000 frames arrive,
/// then checks conservation. `pool_size` bounds the frames in flight; the
/// free list is LIFO, so a freed mbuf is the next one handed out.
void forward_through_switch(std::size_t pool_size) {
  set_log_level(LogLevel::kError);
  shm::ShmManager shm;
  mbuf::Mempool pool("p", pool_size);
  exec::ThreadedRuntime runtime;
  vswitch::OfSwitch of(shm, pool, runtime, exec::CostModel{},
                       {.ring_capacity = 128,
                        .engine_count = 1,
                        .bypass_enabled = false});
  const PortId a = of.add_dpdkr_port("a").value();
  const PortId b = of.add_dpdkr_port("b").value();
  ASSERT_TRUE(
      of.handle_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 1)).is_ok());

  auto* port_a = static_cast<vswitch::DpdkrSwitchPort*>(of.port(a));
  auto* port_b = static_cast<vswitch::DpdkrSwitchPort*>(of.port(b));
  ProducerApp producer(*port_a, pool);
  ConsumerApp consumer(*port_b, pool);

  runtime.add_context(&producer);
  for (exec::Context* engine : of.engine_contexts()) {
    runtime.add_context(engine);
  }
  runtime.add_context(&consumer);
  runtime.start();

  // Wait (wall clock) for a few thousand frames end to end.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (consumer.received.load() < 5000 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runtime.stop();

  EXPECT_GE(consumer.received.load(), 5000u);
  EXPECT_LE(consumer.received.load(), producer.sent.load());

  // Conservation after the threads stopped: drain the rings.
  mbuf::Mbuf* burst[32];
  for (;;) {
    const std::size_t n = port_b->channel().a2b().dequeue_burst(burst);
    if (n == 0) break;
    pool.free_bulk(std::span<mbuf::Mbuf* const>(burst, n));
  }
  for (;;) {
    const std::size_t n = port_a->channel().b2a().dequeue_burst(burst);
    if (n == 0) break;
    pool.free_bulk(std::span<mbuf::Mbuf* const>(burst, n));
  }
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(ThreadedIntegration, RealThreadsForwardThroughTheSwitch) {
  forward_through_switch(512);
}

// A pool of two bursts: the producer runs dry, so an mbuf the consumer
// frees goes straight back to it, while the engine may still be
// finishing the flush that handed it over. Under TSan this catches any
// read of an mbuf after the engine's tx_burst published it.
TEST(ThreadedIntegration, RecycledMbufsAreNotReadAfterHandoff) {
  forward_through_switch(32);
}

}  // namespace
}  // namespace hw
