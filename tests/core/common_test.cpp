#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/latency.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/status.h"
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

// ------------------------------------------------------------------- simd

/// Per-lane reference for simd::match_mask_u16_block: bit i is set iff
/// lane i equals `needle`.
std::uint32_t match_mask_reference(const std::uint16_t* block,
                                   std::uint16_t needle) {
  std::uint32_t mask = 0;
  for (std::size_t lane = 0; lane < simd::kLanesU16; ++lane) {
    if (block[lane] == needle) mask |= 1u << lane;
  }
  return mask;
}

TEST(Simd, MatchMaskAgreesWithPerLaneReference) {
  Rng rng(0x51d);
  // Full blocks holding the needle in 0, 1, several and all 16 lanes, at
  // random positions; every other lane holds a random non-needle value.
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
      for (std::size_t i = 0; i < needles; ++i) {
        std::swap(lanes[i], lanes[i + rng.next_below(simd::kLanesU16 - i)]);
        block[lanes[i]] = needle;
      }
      EXPECT_EQ(simd::match_mask_u16_block(block, needle),
                match_mask_reference(block, needle))
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
}

TEST(LatencyRecorder, MergeWithEmptyIsIdentity) {
  LatencyRecorder a;
  LatencyRecorder empty;
  a.record(42);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
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
