#include <gtest/gtest.h>

#include <deque>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ring/spsc_ring.h"

namespace hw::ring {
namespace {

// ------------------------------------------------------------------- SPSC

TEST(SpscRing, RejectsNonPowerOfTwo) {
  alignas(kCacheLineSize) std::byte mem[8192];
  EXPECT_EQ(SpscRing<int>::init_at(mem, 3), nullptr);
  EXPECT_EQ(SpscRing<int>::init_at(mem, 0), nullptr);
  EXPECT_NE(SpscRing<int>::init_at(mem, 4), nullptr);
}

TEST(SpscRing, BasicEnqueueDequeue) {
  OwnedSpscRing<int> ring(8);
  EXPECT_TRUE(ring->empty());
  EXPECT_EQ(ring->capacity(), 8u);
  EXPECT_TRUE(ring->enqueue(42));
  EXPECT_EQ(ring->size(), 1u);
  int out = 0;
  EXPECT_TRUE(ring->dequeue(out));
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(ring->empty());
  EXPECT_FALSE(ring->dequeue(out));
}

TEST(SpscRing, FillsToCapacityExactly) {
  OwnedSpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring->enqueue(i));
  EXPECT_FALSE(ring->enqueue(99));
  EXPECT_EQ(ring->size(), 4u);
}

TEST(SpscRing, BurstSemantics) {
  OwnedSpscRing<int> ring(8);
  const int items[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring->enqueue_burst(items), 6u);
  const int more[4] = {6, 7, 8, 9};
  // Only 2 slots left: partial acceptance.
  EXPECT_EQ(ring->enqueue_burst(more), 2u);
  int out[16];
  EXPECT_EQ(ring->dequeue_burst(out), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
}

TEST(SpscRing, WrapsAroundCorrectly) {
  OwnedSpscRing<std::uint64_t> ring(4);
  std::uint64_t expected = 0;
  std::uint64_t next = 0;
  for (int round = 0; round < 100; ++round) {
    // 3 in, 3 out — forces index wraparound many times.
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring->enqueue(next++));
    for (int i = 0; i < 3; ++i) {
      std::uint64_t out = 0;
      ASSERT_TRUE(ring->dequeue(out));
      ASSERT_EQ(out, expected++);
    }
  }
}

TEST(SpscRing, AttachSeesSameState) {
  alignas(kCacheLineSize) static std::byte mem[64 * 1024];
  auto* producer_view = SpscRing<int>::init_at(mem, 64);
  ASSERT_NE(producer_view, nullptr);
  ASSERT_TRUE(producer_view->enqueue(123));
  auto* consumer_view = SpscRing<int>::attach_at(mem);
  ASSERT_NE(consumer_view, nullptr);
  int out = 0;
  EXPECT_TRUE(consumer_view->dequeue(out));
  EXPECT_EQ(out, 123);
}

TEST(SpscRing, AttachRejectsGarbage) {
  alignas(kCacheLineSize) std::byte mem[4096] = {};
  EXPECT_EQ(SpscRing<int>::attach_at(mem), nullptr);
}

TEST(SpscRing, BytesRequiredCoversSlots) {
  EXPECT_GE(SpscRing<std::uint64_t>::bytes_required(1024),
            1024 * sizeof(std::uint64_t));
}

/// Property test: random burst operations match a std::deque model.
class SpscRingModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpscRingModelTest, MatchesDequeModel) {
  Rng rng(GetParam());
  OwnedSpscRing<std::uint32_t> ring(64);
  std::deque<std::uint32_t> model;
  std::uint32_t next = 1;
  for (int step = 0; step < 20000; ++step) {
    if (rng.chance(1, 2)) {
      std::vector<std::uint32_t> burst(rng.next_in(1, 80));
      for (auto& v : burst) v = next++;
      const std::size_t accepted = ring->enqueue_burst(burst);
      ASSERT_EQ(accepted, std::min<std::size_t>(burst.size(),
                                                64 - model.size()));
      for (std::size_t i = 0; i < accepted; ++i) model.push_back(burst[i]);
    } else {
      std::vector<std::uint32_t> out(rng.next_in(1, 80));
      const std::size_t got = ring->dequeue_burst(out);
      ASSERT_EQ(got, std::min(out.size(), model.size()));
      for (std::size_t i = 0; i < got; ++i) {
        ASSERT_EQ(out[i], model.front());
        model.pop_front();
      }
    }
    ASSERT_EQ(ring->size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpscRingModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(SpscRing, TwoThreadStressPreservesFifo) {
  OwnedSpscRing<std::uint64_t> ring(256);
  constexpr std::uint64_t kCount = 200'000;
  std::thread producer([&] {
    for (std::uint64_t i = 1; i <= kCount;) {
      if (ring->enqueue(i)) ++i;
    }
  });
  std::uint64_t expected = 1;
  while (expected <= kCount) {
    std::uint64_t out = 0;
    if (ring->dequeue(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring->empty());
}

}  // namespace
}  // namespace hw::ring
