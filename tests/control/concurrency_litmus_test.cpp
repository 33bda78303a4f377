#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "classifier/mask.h"
#include "classifier/megaflow.h"
#include "common/log.h"
#include "common/rng.h"
#include "flowtable/flow_table.h"
#include "mbuf/mempool.h"
#include "openflow/match.h"
#include "pkt/headers.h"
#include "pmd/channel.h"
#include "pmd/shared_stats.h"
#include "ring/spsc_ring.h"
#include "shm/shm.h"
#include "vswitch/rss.h"

namespace hw {
namespace {

/// TSan litmus suite: every genuinely concurrent primitive in the repo,
/// hammered with real std::threads. These tests pass in any build; their
/// *point* is the -fsanitize=thread CI job (HW_SANITIZE=thread), where
/// TSan checks every interleaving the storm produces. SimRuntime runs
/// every virtual core on one host thread, so whether a protocol races
/// depends on its real memory orders, and only real threads (these
/// storms, ThreadedRuntime) exercise them.
///
/// Volumes are deliberately modest: the host may have a single CPU, and
/// TSan multiplies runtime ~10x. Each storm still crosses every
/// cross-thread handoff edge thousands of times.

constexpr std::size_t kStormOps = 20'000;

// ------------------------------------------------------------ SPSC ring

TEST(ConcurrencyLitmus, SpscRingStormPreservesFifoOrder) {
  ring::OwnedSpscRing<std::uint64_t> ring(128);

  std::jthread producer([&] {
    for (std::uint64_t i = 0; i < kStormOps; ++i) {
      while (!ring->enqueue(i)) std::this_thread::yield();
    }
  });

  std::uint64_t expected = 0;
  std::uint64_t buf[16];
  while (expected < kStormOps) {
    const std::size_t n = ring->dequeue_burst(std::span(buf));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expected) << "SPSC ring reordered or lost an item";
      ++expected;
    }
    if (n == 0) std::this_thread::yield();
  }
  EXPECT_EQ(expected, kStormOps);
}

// -------------------------------------------------------------- mempool

TEST(ConcurrencyLitmus, MempoolAllocFreeStorm) {
  // Four threads take random bursts (1-32 buffers, by single and bulk
  // calls) and hand them back in random chunks, while a reader polls
  // in_use(). An owner flag per buffer, set on alloc and cleared before
  // free, catches a buffer handed to a second owner; the payload touch
  // shows TSan the same hand-off.
  mbuf::Mempool pool("litmus", 512);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kMaxBurst = 32;
  constexpr std::size_t kCycles = kStormOps / 4;

  std::vector<std::atomic<std::uint8_t>> owned(pool.capacity());
  std::atomic<std::uint64_t> double_owned{0};
  std::atomic<std::uint64_t> freed_unowned{0};
  std::atomic<bool> done{false};

  // in_use() may lag the storm but must never leave [0, capacity]; an
  // underflow wraps to ~2^64.
  std::uint64_t reads = 0;
  std::uint64_t out_of_range = 0;
  std::size_t worst = 0;
  std::jthread reader([&] {
    do {
      const std::size_t n = pool.in_use();
      ++reads;
      if (n > pool.capacity()) {
        ++out_of_range;
        worst = n;
      }
    } while (!done.load(std::memory_order_acquire));
  });

  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x11f0 + t);
      std::vector<mbuf::Mbuf*> held;
      mbuf::Mbuf* burst[kMaxBurst] = {};
      auto take = [&](mbuf::Mbuf* buf) {
        if (owned[buf->pool_index].exchange(1, std::memory_order_relaxed)) {
          double_owned.fetch_add(1, std::memory_order_relaxed);
        }
        buf->data_len = 64;
        held.push_back(buf);
      };
      for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
        const std::size_t want = 1 + rng.next_below(kMaxBurst);
        while (held.size() < want) {
          if (rng.chance(1, 2)) {
            mbuf::Mbuf* buf = pool.alloc();
            if (buf == nullptr) break;
            take(buf);
          } else {
            const std::size_t got = pool.alloc_bulk(
                std::span(burst, 1 + rng.next_below(want - held.size())));
            for (std::size_t j = 0; j < got; ++j) take(burst[j]);
            if (got == 0) break;
          }
        }
        while (!held.empty()) {
          const std::size_t k =
              rng.chance(1, 2) ? 1 : 1 + rng.next_below(held.size());
          const std::span<mbuf::Mbuf* const> chunk(
              held.data() + held.size() - k, k);
          for (mbuf::Mbuf* buf : chunk) {
            if (!owned[buf->pool_index].exchange(0,
                                                 std::memory_order_relaxed)) {
              freed_unowned.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (k == 1) {
            pool.free(chunk.front());
          } else {
            pool.free_bulk(chunk);
          }
          held.resize(held.size() - k);
        }
      }
    });
  }
  threads.clear();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(double_owned.load(), 0u) << "a buffer had two owners";
  EXPECT_EQ(freed_unowned.load(), 0u);
  EXPECT_EQ(out_of_range, 0u) << "of " << reads << " reads, e.g. " << worst;
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.stats().allocs, pool.stats().frees);
}

// --------------------------------------- revalidator queue vs PMD drain

TEST(ConcurrencyLitmus, RevalidatorEnqueueVsLookupDrain) {
  // The supported cross-thread pattern of the classifier: a control
  // thread queues TableChangeEvents (FlowTable listener) while the cache
  // owner's PMD thread probes and drains. Only the queue handoff is
  // shared; TSan checks exactly that edge.
  classifier::MegaflowCache cache;

  std::atomic<bool> stop{false};
  std::jthread control([&] {
    std::uint64_t version = 1;
    while (!stop.load(std::memory_order_acquire)) {
      flowtable::TableChangeEvent event;
      event.command = openflow::FlowModCommand::kAdd;
      event.match.in_port(static_cast<PortId>(version % 8));
      event.priority = 10;
      event.version = ++version;
      cache.on_table_change(event);
      std::this_thread::yield();
    }
  });

  pkt::FlowKey key;
  key.in_port = 3;
  key.ether_type = pkt::kEtherTypeIpv4;
  classifier::ProbeTally tally;
  std::uint64_t version_seen = 1;
  for (std::size_t i = 0; i < kStormOps / 4; ++i) {
    (void)cache.lookup(key, version_seen, tally);
    if (i % 16 == 0) {
      openflow::Match match;
      match.in_port(3);
      cache.insert(key, classifier::mask_of(match), RuleId{7}, version_seen);
    }
    ++version_seen;
  }
  stop.store(true, std::memory_order_release);
  control.join();
  (void)cache.revalidate();  // final drain must be race-free too
}

// ------------------------------------- shm channel attach vs traffic

TEST(ConcurrencyLitmus, ChannelAttachVsTraffic) {
  // One endpoint creates the channel and immediately starts pushing
  // traffic; the peer spins on attach() until the magic publish is
  // visible, then consumes. This is the ivshmem hot-plug handshake the
  // paper's setup path performs on every bypass establishment.
  shm::ShmManager shm;
  const std::size_t bytes = pmd::ChannelView::bytes_required(64);
  auto region = shm.create("litmus.chan", bytes);
  ASSERT_TRUE(region.is_ok());

  mbuf::Mempool pool("litmus-chan", 128);
  std::atomic<std::uint64_t> received{0};
  constexpr std::uint64_t kFrames = 4'000;

  std::jthread consumer([&] {
    // Spin-attach: failed_precondition until the creator publishes.
    pmd::ChannelView view;
    for (;;) {
      auto attached = pmd::ChannelView::attach(*region.value(), 1);
      if (attached.is_ok()) {
        view = attached.value();
        break;
      }
      std::this_thread::yield();
    }
    mbuf::Mbuf* bufs[8] = {};
    while (received.load(std::memory_order_relaxed) < kFrames) {
      const std::size_t n = view.a2b().dequeue_burst(std::span(bufs));
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bufs[i]->data_len, 100u);  // payload visibility
        pool.free(bufs[i]);
      }
      received.fetch_add(n, std::memory_order_relaxed);
      if (n == 0) std::this_thread::yield();
    }
  });

  auto view = pmd::ChannelView::create_in(*region.value(), 64, 1, 2, 1);
  ASSERT_TRUE(view.is_ok());
  std::uint64_t sent = 0;
  while (sent < kFrames) {
    mbuf::Mbuf* buf = pool.alloc();
    if (buf == nullptr) {
      std::this_thread::yield();
      continue;
    }
    buf->data_len = 100;
    if (view.value().a2b().enqueue(buf)) {
      ++sent;
    } else {
      pool.free(buf);
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_EQ(received.load(), kFrames);
  EXPECT_EQ(pool.in_use(), 0u);
}

// -------------------------------------------------------- log ring sink

TEST(ConcurrencyLitmus, LogRingSinkStorm) {
  log_ring_enable(256, LogLevel::kDebug);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kLines = 2'000;

  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::size_t i = 0; i < kLines; ++i) {
        HW_LOG(kDebug, "litmus", "thread %zu line %zu", t, i);
      }
    });
  }
  threads.clear();

  const auto records = log_ring_snapshot();
  EXPECT_EQ(records.size(), 256u);  // ring retained exactly its capacity
  log_ring_disable();
}

// --------------------------------------------------------- shared stats

TEST(ConcurrencyLitmus, SharedStatsStorm) {
  shm::ShmManager shm;
  auto region =
      shm.create("litmus.stats", pmd::SharedStats::bytes_required());
  ASSERT_TRUE(region.is_ok());
  auto stats = pmd::SharedStats::create_in(*region.value());
  ASSERT_TRUE(stats.is_ok());
  pmd::SharedStats writer_a = stats.value();
  pmd::SharedStats writer_b = stats.value();
  pmd::SharedStats reader = stats.value();

  constexpr std::uint64_t kBursts = 10'000;
  std::jthread a([&] {
    for (std::uint64_t i = 0; i < kBursts; ++i) {
      writer_a.account_bypass(1, 2, 0, 1, 100);
    }
  });
  std::jthread b([&] {
    for (std::uint64_t i = 0; i < kBursts; ++i) {
      writer_b.account_bypass(2, 1, 1, 1, 200);
    }
  });
  // Concurrent reader: values must be tear-free (monotonic per slot).
  std::uint64_t last = 0;
  for (int i = 0; i < 1'000; ++i) {
    const auto [pkts, bytes] = reader.read_rule(0);
    EXPECT_GE(pkts, last);
    EXPECT_EQ(bytes, pkts * 100);
    last = pkts;
  }
  a.join();
  b.join();

  EXPECT_EQ(reader.read_rule(0).first, kBursts);
  EXPECT_EQ(reader.read_rule(1).first, kBursts);
  EXPECT_EQ(reader.read_port(1).rx_packets, kBursts);
  EXPECT_EQ(reader.read_port(1).tx_packets, kBursts);
}

// ----------------------------- multi-engine FlowMod fan-out storm

TEST(ConcurrencyLitmus, TableChangeFanOutAcrossEngineCachesStorm) {
  // The scale-out broadcast point (docs/SCALEOUT.md): one control thread
  // fans every FlowMod-derived TableChangeEvent out to EVERY engine's
  // megaflow cache while each engine's PMD thread keeps classifying and
  // draining its own queue. The only shared edge per cache is its event
  // queue — exactly what a sharded OfSwitch exercises with N engines.
  constexpr std::size_t kEngines = 4;
  classifier::MegaflowCache caches[kEngines];

  std::atomic<bool> stop{false};
  std::jthread control([&] {
    std::uint64_t version = 1;
    while (!stop.load(std::memory_order_acquire)) {
      flowtable::TableChangeEvent event;
      event.command = openflow::FlowModCommand::kAdd;
      event.match.in_port(static_cast<PortId>(version % 8));
      event.priority = 10;
      event.version = ++version;
      for (auto& cache : caches) cache.on_table_change(event);
      std::this_thread::yield();
    }
  });

  std::vector<std::jthread> pmds;
  for (std::size_t e = 0; e < kEngines; ++e) {
    pmds.emplace_back([&, e] {
      pkt::FlowKey key;
      key.in_port = static_cast<PortId>(e + 1);
      key.ether_type = pkt::kEtherTypeIpv4;
      classifier::ProbeTally tally;
      std::uint64_t version_seen = 1;
      for (std::size_t i = 0; i < kStormOps / 8; ++i) {
        (void)caches[e].lookup(key, version_seen, tally);
        if (i % 16 == 0) {
          openflow::Match match;
          match.in_port(static_cast<PortId>(e + 1));
          caches[e].insert(key, classifier::mask_of(match),
                           static_cast<RuleId>(e + 1), version_seen);
        }
        ++version_seen;
      }
    });
  }
  pmds.clear();
  stop.store(true, std::memory_order_release);
  control.join();
  for (auto& cache : caches) (void)cache.revalidate();
}

// --------------------------- RSS bucket-migration vs classify storm

TEST(ConcurrencyLitmus, RssMigrationStormKeepsSlotsCoherent) {
  // Auto-load-balance handoff: a balancer thread migrates buckets while
  // distributor threads read slots and record load. The packed
  // (owner, generation) word must never tear — every read shows a valid
  // owner, and the generation a reader observes for a bucket never goes
  // backwards (the single balancer only increments it).
  constexpr std::uint32_t kEngines = 4;
  constexpr std::uint32_t kBuckets = 64;
  vswitch::RssTable table(kBuckets, kEngines);

  std::atomic<bool> stop{false};
  std::jthread balancer([&] {
    std::uint64_t step = 0;
    while (!stop.load(std::memory_order_acquire)) {
      table.migrate(static_cast<std::uint32_t>(step % kBuckets),
                    static_cast<std::uint32_t>((step * 7 + 1) % kEngines));
      ++step;
      std::this_thread::yield();
    }
  });

  std::vector<std::jthread> distributors;
  for (std::size_t t = 0; t < 3; ++t) {
    distributors.emplace_back([&] {
      std::uint64_t last_gen[kBuckets] = {};
      for (std::size_t i = 0; i < kStormOps; ++i) {
        const auto bucket = static_cast<std::uint32_t>(i % kBuckets);
        const auto slot = table.slot(bucket);
        ASSERT_LT(slot.owner, kEngines) << "torn owner read";
        ASSERT_GE(slot.generation, last_gen[bucket])
            << "generation moved backwards — stale owner published";
        last_gen[bucket] = slot.generation;
        table.record(bucket);
      }
    });
  }
  distributors.clear();
  stop.store(true, std::memory_order_release);
  balancer.join();
}

// ------------------------------ concurrent rebalance-check contention

TEST(ConcurrencyLitmus, RssRebalanceContentionNeverBlocksDistributors) {
  // Several distributor threads trip the balance interval at once; the
  // try-lock inside rebalance() must let exactly one run the EWMA pass
  // while the rest return immediately (no blocking, no double-count).
  vswitch::RssConfig config;
  config.enabled = true;
  config.buckets = 32;
  config.balance_interval = 64;
  vswitch::RssSharder sharder(config, 4);

  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kStormOps / 4; ++i) {
        sharder.table().record(static_cast<std::uint32_t>((t * 8 + i) % 32));
        if (sharder.note_distributed(8)) sharder.rebalance();
      }
    });
  }
  threads.clear();

  const auto stats = sharder.stats();
  EXPECT_GT(stats.rebalance_checks, 0u);
  // Every slot must still name a valid engine after the storm.
  for (std::uint32_t b = 0; b < 32; ++b) {
    EXPECT_LT(sharder.table().slot(b).owner, 4u);
  }
}

}  // namespace
}  // namespace hw
