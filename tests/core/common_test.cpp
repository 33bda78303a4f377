#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/latency.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/sampler.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/topk.h"
#include "common/types.h"
#include "common/units.h"

namespace hw {
namespace {

// ------------------------------------------------------------------ types

TEST(Types, PowerOfTwo) {
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(1023));
  EXPECT_TRUE(is_power_of_two(1ULL << 40));
}

TEST(Types, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(0), 1u);
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
}

TEST(Types, AlignUp) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
  EXPECT_EQ(align_up(100, 8), 104u);
}

TEST(Types, CacheAlignedOccupiesFullLines) {
  EXPECT_EQ(sizeof(CacheAligned<std::uint8_t>) % kCacheLineSize, 0u);
  EXPECT_EQ(alignof(CacheAligned<std::uint64_t>), kCacheLineSize);
}

// ----------------------------------------------------------------- status

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status status = Status::not_found("port 7");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.to_string(), "NOT_FOUND: port 7");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::internal("a"), Status::internal("b"));
  EXPECT_FALSE(Status::internal("a") == Status::not_found("a"));
}

TEST(Status, AllCodeNamesResolve) {
  for (const auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kResourceExhausted,
        StatusCode::kFailedPrecondition, StatusCode::kUnavailable,
        StatusCode::kInternal}) {
    EXPECT_NE(status_code_name(code), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> result(Status::unavailable("down"));
  EXPECT_FALSE(result.is_ok());
  EXPECT_FALSE(result);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> result(std::string("hello"));
  const std::string moved = std::move(result).take();
  EXPECT_EQ(moved, "hello");
}

TEST(Result, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::internal("boom"); };
  auto wrapper = [&]() -> Status {
    HW_RETURN_IF_ERROR(fails());
    return Status::ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(30, 100);
  EXPECT_GT(hits, 2600);
  EXPECT_LT(hits, 3400);
}

// ------------------------------------------------------------------ top-k

/// SpaceSaving kept the textbook way, with a key → slot map beside the
/// slots and the first minimum evicted: the sketch's reference.
class ReferenceSpaceSaving {
 public:
  explicit ReferenceSpaceSaving(std::size_t capacity) : capacity_(capacity) {}

  void offer(std::uint64_t key) {
    ++total_;
    if (const auto it = index_.find(key); it != index_.end()) {
      ++slots_[it->second].count;
      return;
    }
    if (slots_.size() < capacity_) {
      index_[key] = slots_.size();
      slots_.push_back({key, 1});
      return;
    }
    const auto victim = std::min_element(
        slots_.begin(), slots_.end(),
        [](const auto& a, const auto& b) { return a.count < b.count; });
    index_.erase(victim->key);
    index_[key] = static_cast<std::size_t>(victim - slots_.begin());
    victim->key = key;
    ++victim->count;
  }

  [[nodiscard]] double share(std::size_t k) const {
    if (total_ == 0 || k == 0) return 0.0;
    std::vector<std::uint64_t> counts;
    for (const auto& slot : slots_) counts.push_back(slot.count);
    std::sort(counts.begin(), counts.end(), std::greater<>());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < k && i < counts.size(); ++i) sum += counts[i];
    return std::min(1.0,
                    static_cast<double>(sum) / static_cast<double>(total_));
  }

  struct Slot {
    std::uint64_t key;
    std::uint64_t count;
  };
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }

 private:
  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::uint64_t total_ = 0;
};

TEST(TopKSketch, KeepsSpaceSavingGuaranteesAndMatchesAReference) {
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kKeys = 4096;
  constexpr std::uint64_t kOffers = 200'000;
  const ZipfSampler zipf(1.1);
  for (const bool skewed : {true, false}) {
    Rng rng(skewed ? 0x70b1 : 0x70b2);
    TopKSketch sketch(kCapacity);
    ReferenceSpaceSaving reference(kCapacity);
    std::unordered_map<std::uint64_t, std::uint64_t> truth;
    for (std::uint64_t i = 0; i < kOffers; ++i) {
      const std::uint64_t key =
          skewed ? zipf.draw(rng, kKeys) : rng.next_below(kKeys);
      sketch.offer(key);
      reference.offer(key);
      ++truth[key];
    }
    ASSERT_EQ(sketch.total(), kOffers);
    ASSERT_EQ(sketch.tracked(), kCapacity);

    // SpaceSaving's guarantees. Every key counted more than
    // total / capacity times is tracked (the Zipf head; no uniform key
    // gets there), and a tracked count overestimates its key's true count
    // by at most the smallest tracked count.
    std::uint64_t min_count = ~std::uint64_t{0};
    std::unordered_map<std::uint64_t, std::uint64_t> tracked;
    for (std::size_t i = 0; i < sketch.tracked(); ++i) {
      min_count = std::min(min_count, sketch.counts()[i]);
      tracked[sketch.keys()[i]] = sketch.counts()[i];
    }
    std::uint64_t heavy = 0;
    for (const auto& [key, count] : truth) {
      if (count * kCapacity <= kOffers) continue;
      ++heavy;
      EXPECT_TRUE(tracked.contains(key)) << "key " << key << " x" << count;
    }
    EXPECT_EQ(heavy > 0, skewed);
    for (const auto& [key, count] : tracked) {
      EXPECT_GE(count, truth[key]) << "key " << key;
      EXPECT_LE(count - truth[key], min_count) << "key " << key;
    }

    // The same slots, in the same order, as the reference, so the same
    // share at every k.
    ASSERT_EQ(sketch.keys().size(), reference.slots().size());
    ASSERT_EQ(sketch.counts().size(), reference.slots().size());
    for (std::size_t i = 0; i < kCapacity; ++i) {
      EXPECT_EQ(sketch.keys()[i], reference.slots()[i].key) << i;
      EXPECT_EQ(sketch.counts()[i], reference.slots()[i].count) << i;
    }
    for (std::size_t k = 0; k <= kCapacity + 1; ++k) {
      EXPECT_EQ(sketch.share(k), reference.share(k)) << "k=" << k;
    }
  }
}

// ------------------------------------------------------------------- simd

TEST(Simd, MatchMaskAgreesWithPerLaneReference) {
  Rng rng(0x51d);
  // Full blocks holding the needle in 0, 1, several and all 16 lanes, at
  // random positions; every other lane holds a random non-needle value,
  // so the lanes the needle was written to are the expected mask. The
  // portable block must return it in every build, and the compiled-in
  // backend (SSE2, NEON or the portable block itself) must agree.
  for (const std::size_t needles : {0u, 1u, 5u, 16u}) {
    for (int trial = 0; trial < 64; ++trial) {
      const auto needle = static_cast<std::uint16_t>(rng.next());
      std::uint16_t block[simd::kLanesU16];
      std::size_t lanes[simd::kLanesU16];
      for (std::size_t lane = 0; lane < simd::kLanesU16; ++lane) {
        do {
          block[lane] = static_cast<std::uint16_t>(rng.next());
        } while (block[lane] == needle);
        lanes[lane] = lane;
      }
      std::uint32_t expected = 0;
      for (std::size_t i = 0; i < needles; ++i) {
        std::swap(lanes[i], lanes[i + rng.next_below(simd::kLanesU16 - i)]);
        block[lanes[i]] = needle;
        expected |= 1u << lanes[i];
      }
      const std::uint32_t reference =
          simd::match_mask_u16_block_portable(block, needle);
      EXPECT_EQ(reference, expected) << needles << " needle lanes";
      EXPECT_EQ(simd::match_mask_u16_block(block, needle), reference)
          << simd::kBackendName << " backend, " << needles
          << " needle lanes";
    }
  }
}

// ---------------------------------------------------------------- latency

TEST(LatencyRecorder, BasicStats) {
  LatencyRecorder recorder;
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.mean(), 0.0);
  recorder.record(100);
  recorder.record(200);
  recorder.record(300);
  EXPECT_EQ(recorder.count(), 3u);
  EXPECT_EQ(recorder.min(), 100u);
  EXPECT_EQ(recorder.max(), 300u);
  EXPECT_DOUBLE_EQ(recorder.mean(), 200.0);
}

TEST(LatencyRecorder, QuantilesAreMonotonic) {
  LatencyRecorder recorder;
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    recorder.record(rng.next_in(100, 100000));
  }
  EXPECT_LE(recorder.quantile(0.5), recorder.quantile(0.9));
  EXPECT_LE(recorder.quantile(0.9), recorder.quantile(0.99));
  EXPECT_LE(recorder.quantile(0.99), recorder.max() * 2);
}

TEST(LatencyRecorder, QuantileBoundsSample) {
  LatencyRecorder recorder;
  recorder.record(1000);  // single sample: every quantile covers it
  EXPECT_GE(recorder.quantile(0.5), 1000u);
  EXPECT_GE(recorder.quantile(0.99), 1000u);
}

TEST(LatencyRecorder, ResetClears) {
  LatencyRecorder recorder;
  recorder.record(5);
  recorder.reset();
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.max(), 0u);
}

TEST(LatencyRecorder, AllZeroDistributionReportsZero) {
  LatencyRecorder r;
  for (int i = 0; i < 100; ++i) r.record(0);
  // Bucket 0 holds both 0 and 1 ns; reading its upper bound would report
  // 1 ns for a distribution that never saw a nonzero sample.
  EXPECT_EQ(r.quantile(0.50), 0u);
  EXPECT_EQ(r.quantile(0.99), 0u);
}

TEST(LatencyRecorder, ConstantDistributionIsExact) {
  LatencyRecorder r;
  for (int i = 0; i < 1000; ++i) r.record(100);
  // All samples in one bucket [64, 127]: min_ = max_ = 100 beats both
  // bucket bounds.
  EXPECT_EQ(r.quantile(0.0), 100u);
  EXPECT_EQ(r.quantile(0.50), 100u);
  EXPECT_EQ(r.quantile(0.99), 100u);
  EXPECT_EQ(r.quantile(1.0), 100u);
}

TEST(LatencyRecorder, BimodalP50AndP99Pinned) {
  LatencyRecorder r;
  for (int i = 0; i < 95; ++i) r.record(5);
  for (int i = 0; i < 5; ++i) r.record(1000);
  // p50 sits among the 5s (lowest occupied bucket [4,7], min-clamped to
  // 5); p99 among the 1000s (bucket [512, 1023], max-clamped to 1000).
  EXPECT_EQ(r.quantile(0.50), 5u);
  EXPECT_EQ(r.quantile(0.99), 1000u);
}

TEST(LatencyRecorder, UpperTailStillClampsToMax) {
  LatencyRecorder r;
  r.record(3);
  r.record(600);
  EXPECT_EQ(r.quantile(1.0), 600u);  // not bucket upper bound 1023
  EXPECT_EQ(r.quantile(0.0), 3u);
}

TEST(LatencyRecorder, OneBucketQuantilesSpanMinToMax) {
  // 54 and 62 us share the log2 bucket [32768, 65535] ns, the shape of
  // every bench_latency row. The tail must not read the minimum.
  LatencyRecorder r;
  for (int i = 0; i < 50; ++i) r.record(54'000);
  for (int i = 0; i < 50; ++i) r.record(62'000);
  EXPECT_GT(r.quantile(0.99), 54'000u);
  EXPECT_LE(r.quantile(0.99), 62'000u);
  EXPECT_EQ(r.quantile(0.0), 54'000u);
  EXPECT_EQ(r.quantile(1.0), 62'000u);
  EXPECT_LT(r.quantile(0.50), r.quantile(0.99));
}

/// count, min, max, mean and a spread of quantiles agree.
void expect_same_distribution(const LatencyRecorder& a,
                              const LatencyRecorder& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
}

TEST(LatencyRecorder, MergeCombines) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.record(100);
  b.record(300);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_DOUBLE_EQ(a.mean(), 200.0);

  // Merge order: three recorders spread over many buckets describe one
  // distribution whether folded into an empty one (as
  // ChainScenario::measure() folds its head and tail sinks) in any of
  // three orders, or grouped as a + (b + c).
  LatencyRecorder parts[3];
  for (TimeNs v = 0; v < 300; ++v) parts[0].record(v * 7);
  for (TimeNs v = 0; v < 200; ++v) parts[1].record(v * v);
  for (TimeNs v = 1; v < 100; ++v) parts[2].record(1'000'000 / v);
  const auto fold = [&](std::initializer_list<int> order) {
    LatencyRecorder out;
    for (const int i : order) out.merge(parts[i]);
    return out;
  };
  const LatencyRecorder forward = fold({0, 1, 2});
  EXPECT_EQ(forward.count(), 599u);
  EXPECT_EQ(forward.min(), 0u);
  EXPECT_EQ(forward.max(), 1'000'000u);
  expect_same_distribution(forward, fold({2, 1, 0}));
  expect_same_distribution(forward, fold({1, 2, 0}));
  LatencyRecorder grouped = parts[1];
  grouped.merge(parts[2]);
  LatencyRecorder outer = parts[0];
  outer.merge(grouped);
  expect_same_distribution(forward, outer);
}

TEST(LatencyRecorder, MergeWithEmptyIsIdentity) {
  // Inputs: one sample, and forty over several buckets. Each is merged
  // both ways: a recorder absorbing an empty one, and an empty one
  // absorbing the recorder (measure()'s first merge), where min must
  // come from the non-empty side, not the empty recorder's 0.
  LatencyRecorder one;
  one.record(42);
  LatencyRecorder forty;
  for (TimeNs v = 10; v < 50; ++v) forty.record(v);
  for (const LatencyRecorder* sample : {&one, &forty}) {
    LatencyRecorder full_first = *sample;
    full_first.merge(LatencyRecorder{});
    LatencyRecorder empty_first;
    empty_first.merge(*sample);
    expect_same_distribution(full_first, *sample);
    expect_same_distribution(empty_first, *sample);
  }
}

// ------------------------------------------------------------------ units

TEST(Units, TenGigLineRate) {
  EXPECT_NEAR(line_rate_pps(10'000'000'000ULL, 64), 14.88e6, 0.01e6);
  EXPECT_NEAR(line_rate_pps(10'000'000'000ULL, 1518), 812743.8, 1000);
}

TEST(Units, ToMpps) {
  EXPECT_DOUBLE_EQ(to_mpps(1'000'000, kNsPerSec), 1.0);
  EXPECT_DOUBLE_EQ(to_mpps(500, 1'000'000), 0.5);
  EXPECT_DOUBLE_EQ(to_mpps(100, 0), 0.0);
}

TEST(Units, ToGbps) {
  EXPECT_DOUBLE_EQ(to_gbps(1'250'000'000, kNsPerSec), 10.0);
  EXPECT_DOUBLE_EQ(to_gbps(1, 0), 0.0);
}

// -------------------------------------------------------------------- log

TEST(Log, TruncationIsMarkedNotSilent) {
  set_log_level(LogLevel::kInfo);
  const std::string big(2000, 'x');
  ::testing::internal::CaptureStderr();
  log_printf(LogLevel::kInfo, "test", "%s", big.c_str());
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("…"), std::string::npos)
      << "overflowing message must carry a visible truncation marker";
  EXPECT_LT(out.size(), big.size());  // actually truncated
}

TEST(Log, ShortMessagesPassThroughUnmarked) {
  set_log_level(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  log_printf(LogLevel::kInfo, "test", "port %u added", 7u);
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("port 7 added"), std::string::npos);
  EXPECT_EQ(out.find("…"), std::string::npos);
}

}  // namespace
}  // namespace hw
