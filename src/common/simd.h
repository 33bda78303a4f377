#pragma once

#include <cstddef>
#include <cstdint>

/// \file simd.h
/// Minimal SIMD wrapper for the hot-path probes (hw::simd). The only
/// primitive the datapath needs is "which of these 16 contiguous 16-bit
/// lanes equal this value?" — one vector compare + movemask per 16-entry
/// block, the operation DPDK-style vector classifiers (and the signature
/// buckets of DPDK's rte_hash) build on.
///
/// Backend selection is a build-time decision, and the only one:
///   * x86 with SSE2      → _mm_cmpeq_epi16 + _mm_movemask_epi8
///   * ARM with NEON      → vceqq_u16 + a narrowing mask fold
///   * anything else      → the portable 16-lane block
///
/// Callers read whole 16-lane buckets whatever the backend (the megaflow
/// cache's cuckoo buckets are exactly one block, and mask off empty lanes
/// themselves), so every build reads the same blocks and charges the
/// same virtual cycles; only the host instructions differ. `kBackendName`
/// reports which backend this binary compiled in. Every build also
/// compiles the portable block, match_mask_u16_block_portable: it is the
/// per-lane reference Simd.MatchMaskAgreesWithPerLaneReference checks
/// the compiled-in backend against, so the fallback is tested by every
/// build's test run.

#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define HW_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && \
    (defined(__ARM_NEON) || defined(__ARM_NEON__))
// AArch64 only: the mask fold below uses vaddv (horizontal add), which
// 32-bit NEON lacks — AArch32 builds take the portable block.
#define HW_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace hw::simd {

/// Lanes per block: every block-oriented probe in the tree works in units
/// of 16 × 16-bit signatures (32 bytes — one or two vector registers).
inline constexpr std::size_t kLanesU16 = 16;

/// Bitmask (bit i = lane i) of the lanes in block[0..16) equal to
/// `needle`, one compare per lane. `block` must be readable for all 16
/// lanes. The backend on targets without SSE2 or NEON, and the reference
/// every backend must agree with.
[[nodiscard]] inline std::uint32_t match_mask_u16_block_portable(
    const std::uint16_t* block, std::uint16_t needle) noexcept {
  std::uint32_t mask = 0;
  for (std::size_t lane = 0; lane < kLanesU16; ++lane) {
    mask |= static_cast<std::uint32_t>(block[lane] == needle) << lane;
  }
  return mask;
}

#if defined(HW_SIMD_SSE2)
inline constexpr const char* kBackendName = "sse2";

/// match_mask_u16_block_portable's bitmask, from two vector compares.
[[nodiscard]] inline std::uint32_t match_mask_u16_block(
    const std::uint16_t* block, std::uint16_t needle) noexcept {
  const __m128i n = _mm_set1_epi16(static_cast<short>(needle));
  const __m128i a =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block));
  const __m128i b =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 8));
  // Saturating signed pack turns each 0xFFFF compare lane into one 0xFF
  // byte (and 0x0000 into 0x00), so a single movemask yields the
  // 16-lane bitmask directly — two instructions, no scalar fold.
  return static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_packs_epi16(_mm_cmpeq_epi16(a, n), _mm_cmpeq_epi16(b, n))));
}

#elif defined(HW_SIMD_NEON)
inline constexpr const char* kBackendName = "neon";

[[nodiscard]] inline std::uint32_t match_mask_u16_block(
    const std::uint16_t* block, std::uint16_t needle) noexcept {
  const uint16x8_t n = vdupq_n_u16(needle);
  const uint16x8_t eq_lo = vceqq_u16(vld1q_u16(block), n);
  const uint16x8_t eq_hi = vceqq_u16(vld1q_u16(block + 8), n);
  // Narrow each 16-bit 0xffff/0x0000 lane to an 8-bit 0xff/0x00 lane,
  // then fold the 16 bytes into a 16-bit mask via a per-lane bit select.
  const uint8x16_t bytes = vcombine_u8(vmovn_u16(eq_lo), vmovn_u16(eq_hi));
  alignas(16) static constexpr std::uint8_t kBits[16] = {
      1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t selected = vandq_u8(bytes, vld1q_u8(kBits));
  const std::uint32_t lo = vaddv_u8(vget_low_u8(selected));
  const std::uint32_t hi = vaddv_u8(vget_high_u8(selected));
  return lo | (hi << 8);
}

#else
inline constexpr const char* kBackendName = "scalar";

[[nodiscard]] inline std::uint32_t match_mask_u16_block(
    const std::uint16_t* block, std::uint16_t needle) noexcept {
  return match_mask_u16_block_portable(block, needle);
}
#endif

}  // namespace hw::simd
