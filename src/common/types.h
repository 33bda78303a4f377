#pragma once

#include <cstddef>
#include <cstdint>

/// \file types.h
/// Fundamental identifier and quantity types shared by every module.
///
/// Strongly-typed aliases keep interfaces self-describing (C++ Core
/// Guidelines P.1/I.4) without the overhead of full wrapper classes on the
/// packet path.

namespace hw {

/// OpenFlow-style switch port number. Ports are dense small integers
/// assigned by the switch; special values mirror OpenFlow reserved ports.
using PortId = std::uint16_t;

/// Reserved port numbers (subset of the OpenFlow 1.x special ports).
inline constexpr PortId kPortNone = 0xffff;       ///< "no port" sentinel
inline constexpr PortId kPortController = 0xfffd; ///< punt to controller
inline constexpr PortId kPortDrop = 0xfffc;       ///< explicit drop
inline constexpr PortId kMaxPorts = 4096;         ///< dense port-id space

/// Identifier of a virtual machine managed by the hypervisor simulation.
using VmId = std::uint32_t;

/// Identifier of a flow rule inside a flow table (dense, reused after
/// removal). Distinct from the OpenFlow cookie, which is caller-chosen.
using RuleId = std::uint32_t;
inline constexpr RuleId kRuleNone = 0xffffffff;

/// OpenFlow cookie: opaque 64-bit value chosen by the controller.
using Cookie = std::uint64_t;

/// CPU cycles on a virtual core (see exec::CostModel for the frequency).
using Cycles = std::uint64_t;

/// Virtual or wall-clock time in nanoseconds.
using TimeNs = std::uint64_t;

/// Monotonic sequence number stamped into generated packets.
using SeqNo = std::uint64_t;

/// Frames one poll moves per ring operation (DPDK's customary burst):
/// the switch's forwarding engines, the simulated NICs and the VM apps
/// all size their bursts with it.
inline constexpr std::uint32_t kBurstSize = 32;

/// Size of one destructive-interference-free cache line. We hardcode 64
/// (x86) instead of std::hardware_destructive_interference_size because the
/// latter triggers ABI warnings on GCC and varies across targets.
inline constexpr std::size_t kCacheLineSize = 64;

/// Pads T to a full cache line to prevent false sharing between the
/// producer- and consumer-owned halves of ring metadata.
template <typename T>
struct alignas(kCacheLineSize) CacheAligned {
  T value{};
};

/// True iff v is a power of two (and nonzero).
[[nodiscard]] constexpr bool is_power_of_two(std::size_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// Smallest power of two >= v (v must be <= 2^63).
[[nodiscard]] constexpr std::size_t next_power_of_two(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Rounds n up to the next multiple of `align` (align must be a power of 2).
[[nodiscard]] constexpr std::size_t align_up(std::size_t n,
                                             std::size_t align) noexcept {
  return (n + align - 1) & ~(align - 1);
}

}  // namespace hw
