#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "mbuf/mempool.h"

namespace hw::mbuf {
namespace {

TEST(Mbuf, SizeTilesCacheLines) {
  EXPECT_EQ(sizeof(Mbuf) % kCacheLineSize, 0u);
  EXPECT_GE(kMbufDataRoom, 1518u);  // max Ethernet frame fits
}

TEST(Mbuf, ResetClearsMetadataOnly) {
  Mbuf buf;
  buf.data_len = 100;
  buf.in_port = 4;
  buf.seq = 9;
  buf.ts_ns = 7;
  buf.flow_hash = 3;
  buf.pool_index = 55;
  buf.reset();
  EXPECT_EQ(buf.data_len, 0u);
  EXPECT_EQ(buf.in_port, kPortNone);
  EXPECT_EQ(buf.seq, 0u);
  EXPECT_EQ(buf.ts_ns, 0u);
  EXPECT_EQ(buf.flow_hash, 0u);
  EXPECT_EQ(buf.pool_index, 55u);  // pool identity survives reset
}

TEST(Mempool, CapacityRoundsToPowerOfTwo) {
  Mempool pool("p", 1000);
  EXPECT_EQ(pool.capacity(), 1024u);
}

TEST(Mempool, AllocFreeCycle) {
  Mempool pool("p", 16);
  Mbuf* buf = pool.alloc();
  ASSERT_NE(buf, nullptr);
  EXPECT_TRUE(pool.owns(buf));
  EXPECT_EQ(pool.in_use(), 1u);
  pool.free(buf);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(Mempool, AllocResetsBuffer) {
  Mempool pool("p", 4);
  Mbuf* buf = pool.alloc();
  buf->data_len = 64;
  buf->seq = 77;
  pool.free(buf);
  // Drain until we get the same buffer back.
  for (int i = 0; i < 4; ++i) {
    Mbuf* again = pool.alloc();
    if (again == buf) {
      EXPECT_EQ(again->data_len, 0u);
      EXPECT_EQ(again->seq, 0u);
      return;
    }
  }
  FAIL() << "buffer never recycled";
}

TEST(Mempool, ExhaustionReturnsNull) {
  Mempool pool("p", 4);
  std::vector<Mbuf*> held;
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    Mbuf* buf = pool.alloc();
    ASSERT_NE(buf, nullptr);
    held.push_back(buf);
  }
  EXPECT_EQ(pool.alloc(), nullptr);
  EXPECT_EQ(pool.stats().alloc_failures, 1u);
  pool.free_bulk(held);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_NE(pool.alloc(), nullptr);
}

TEST(Mempool, LastFreedIsNextAllocated) {
  Mempool pool("p", 8);
  Mbuf* a = pool.alloc();
  Mbuf* b = pool.alloc();
  Mbuf* c = pool.alloc();
  pool.free(b);
  EXPECT_EQ(pool.alloc(), b);
  pool.free(a);
  pool.free(c);
  EXPECT_EQ(pool.alloc(), c);
  EXPECT_EQ(pool.alloc(), a);
  Mbuf* burst[2] = {a, c};
  pool.free_bulk(burst);
  pool.free(b);
  EXPECT_EQ(pool.alloc(), b);
  EXPECT_EQ(pool.alloc(), c);  // a burst's last buffer ends on top
  EXPECT_EQ(pool.alloc(), a);
}

TEST(Mempool, BulkAllocPartial) {
  Mempool pool("p", 8);
  std::vector<Mbuf*> held;
  for (int i = 0; i < 3; ++i) held.push_back(pool.alloc());
  std::vector<Mbuf*> out(20, nullptr);
  const std::size_t got = pool.alloc_bulk(out);
  ASSERT_EQ(got, pool.capacity() - held.size());
  EXPECT_EQ(pool.stats().alloc_failures, 1u);
  EXPECT_EQ(pool.stats().allocs, pool.capacity());
  EXPECT_EQ(pool.in_use(), pool.capacity());
  held.insert(held.end(), out.begin(), out.begin() + got);
  for (Mbuf* buf : held) EXPECT_TRUE(pool.owns(buf));
  std::sort(held.begin(), held.end());
  EXPECT_EQ(std::adjacent_find(held.begin(), held.end()), held.end());
  EXPECT_EQ(pool.alloc_bulk(out), 0u);  // empty pool: one more failure
  EXPECT_EQ(pool.stats().alloc_failures, 2u);
  pool.free_bulk(held);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(Mempool, FreeBulkThenAllocBulkReturnsTheSameSet) {
  Mempool pool("p", 64);
  std::vector<Mbuf*> first(16);
  ASSERT_EQ(pool.alloc_bulk(first), 16u);
  Mbuf* other = pool.alloc();
  for (Mbuf* buf : first) buf->seq = 9;
  pool.free_bulk(first);
  std::vector<Mbuf*> again(16);
  ASSERT_EQ(pool.alloc_bulk(again), 16u);
  for (Mbuf* buf : again) EXPECT_EQ(buf->seq, 0u);  // reset on alloc
  std::sort(first.begin(), first.end());
  std::sort(again.begin(), again.end());
  EXPECT_EQ(again, first);
  pool.free_bulk(again);
  pool.free(other);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(Mempool, UniqueBuffersHandedOut) {
  Mempool pool("p", 64);
  std::vector<Mbuf*> held;
  for (std::size_t i = 0; i < 64; ++i) held.push_back(pool.alloc());
  std::sort(held.begin(), held.end());
  EXPECT_EQ(std::adjacent_find(held.begin(), held.end()), held.end());
  pool.free_bulk(held);
}

TEST(Mempool, OwnsRejectsForeignPointers) {
  Mempool pool("p", 4);
  Mbuf foreign;
  EXPECT_FALSE(pool.owns(&foreign));
}

TEST(Mempool, StatsCount) {
  Mempool pool("p", 8);
  Mbuf* a = pool.alloc();
  Mbuf* b = pool.alloc();
  pool.free(a);
  pool.free(b);
  EXPECT_EQ(pool.stats().allocs, 2u);
  EXPECT_EQ(pool.stats().frees, 2u);
  EXPECT_EQ(pool.stats().alloc_failures, 0u);
}

/// Conservation property under random single and bulk alloc/free
/// sequences; in_use() must track every call, partial bulk allocs of an
/// exhausted pool included.
class MempoolConservationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MempoolConservationTest, NeverLosesBuffers) {
  Rng rng(GetParam());
  Mempool pool("p", 128);
  std::vector<Mbuf*> held;
  Mbuf* burst[32] = {};
  for (int step = 0; step < 50000; ++step) {
    const bool bulk = rng.chance(1, 2);
    if (rng.chance(1, 2) && held.size() < 200) {
      if (bulk) {
        const std::size_t got =
            pool.alloc_bulk(std::span(burst, 1 + rng.next_below(32)));
        held.insert(held.end(), burst, burst + got);
      } else if (Mbuf* buf = pool.alloc()) {
        held.push_back(buf);
      }
    } else if (!held.empty()) {
      if (bulk) {
        const std::size_t k = 1 + rng.next_below(held.size());
        pool.free_bulk(
            std::span<Mbuf* const>(held.data() + held.size() - k, k));
        held.resize(held.size() - k);
      } else {
        const std::size_t index = rng.next_below(held.size());
        pool.free(held[index]);
        held[index] = held.back();
        held.pop_back();
      }
    }
    ASSERT_EQ(pool.in_use(), held.size());
  }
  pool.free_bulk(held);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.stats().allocs, pool.stats().frees);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MempoolConservationTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace hw::mbuf
