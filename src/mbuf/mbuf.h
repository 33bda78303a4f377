#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.h"

/// \file mbuf.h
/// Packet buffer, modeled on DPDK's rte_mbuf (single-segment variant).
///
/// Mbufs are allocated from a shared Mempool and passed *by pointer*
/// through rings — the zero-copy property that makes dpdkr and the bypass
/// channel fast. Payload bytes live inline so a pointer hand-off moves the
/// whole frame.

namespace hw::mbuf {

/// Usable payload bytes per buffer. Large enough for a 1518 B max frame.
inline constexpr std::size_t kMbufDataRoom = 2016;

struct alignas(kCacheLineSize) Mbuf {
  // --- metadata (kept in the first cache line, Per.17) ---
  std::uint32_t data_len = 0;   ///< valid bytes in data[]
  PortId in_port = kPortNone;   ///< switch port the frame arrived on
  std::uint16_t flags = 0;      ///< reserved for app use
  SeqNo seq = 0;                ///< generator sequence (loss/order checks)
  TimeNs ts_ns = 0;             ///< virtual time of generation (latency)
  /// Cached flow_key_hash of the frame's key, in_port included; 0 = not
  /// computed. Each switch crossing leaves the hash it classified with.
  std::uint32_t flow_hash = 0;
  std::uint32_t pool_index = 0; ///< position in the owning pool

  std::byte data[kMbufDataRoom];

  /// Read-only view of the frame payload.
  [[nodiscard]] std::span<const std::byte> payload() const noexcept {
    return {data, data_len};
  }
  /// Mutable view of the full data room.
  [[nodiscard]] std::span<std::byte> room() noexcept {
    return {data, kMbufDataRoom};
  }

  /// Resets per-packet metadata; called by Mempool on allocation.
  void reset() noexcept {
    data_len = 0;
    in_port = kPortNone;
    flags = 0;
    seq = 0;
    ts_ns = 0;
    flow_hash = 0;
  }
};

static_assert(sizeof(Mbuf) % kCacheLineSize == 0,
              "mbuf must tile cache lines");

}  // namespace hw::mbuf
