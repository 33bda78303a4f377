#pragma once

#include <cstdint>

#include "mbuf/mbuf.h"

/// \file int_stamp.h
/// In-band Network Telemetry (INT) hop-stamping.
///
/// Each forwarding element a frame traverses (in this repo: a GuestPmd,
/// the per-VM vhost endpoint) appends one fixed-size hop record to the
/// frame. Real INT inserts a shim between L4 and payload; here the stack
/// is simulated, so the records live in a trailer AFTER the payload,
/// capped by a footer — parse()/extract_flow_key() read only the headers
/// and never see it, which is exactly the transparency property: stamped
/// and unstamped frames classify identically.
///
/// Wire layout (all fields native-endian — frames never leave the
/// process):
///
///     [ frame payload (data_len - 8 - 24*n bytes) ]
///     [ IntHopRecord #0 ]  24 B   oldest hop
///     ...
///     [ IntHopRecord #n-1 ]        newest hop
///     [ IntFooter ]         8 B   magic + hop count
///
/// The footer sits at the very end so a stamper only reads fixed offsets
/// from data_len. Hop latency for hop h = records[h+1].ingress_ns -
/// records[h].ingress_ns at the collector; egress_ns is stamped by the
/// *receiving* element when it dequeues the frame, so
/// egress_ns - ingress_ns of one record is that link's transit time (the
/// quantity the bypass drives to ~0). See docs/OBSERVABILITY.md.

namespace hw::pkt {

inline constexpr std::uint32_t kIntMagic = 0x30544e49;  // "INT0" LE

/// One per-hop metadata record (24 bytes).
struct IntHopRecord {
  std::uint32_t hop_id = 0;       ///< stamping element (port id)
  std::uint32_t queue_depth = 0;  ///< tx ring occupancy after enqueue
  std::uint64_t ingress_ns = 0;   ///< virtual time entering the link
  std::uint64_t egress_ns = 0;    ///< virtual time leaving the link (0 =
                                  ///< still in flight)
};
static_assert(sizeof(IntHopRecord) == 24);

struct IntFooter {
  std::uint32_t magic = kIntMagic;
  std::uint16_t hop_count = 0;
  std::uint16_t reserved = 0;
};
static_assert(sizeof(IntFooter) == 8);

/// Number of INT hops recorded in `buf`, or 0 when the frame carries no
/// (valid) trailer.
[[nodiscard]] std::uint16_t int_hop_count(const mbuf::Mbuf& buf) noexcept;

/// Appends a hop record (creating the trailer on first use), growing
/// data_len by the record (+ footer on first use). Returns false — frame
/// unchanged — when the data room cannot fit another record.
bool int_push_hop(mbuf::Mbuf& buf, std::uint32_t hop_id,
                  std::uint64_t ingress_ns,
                  std::uint32_t queue_depth) noexcept;

/// Stamps egress time into the newest hop record, if any with egress 0.
/// Returns false when the frame has no trailer or the newest record is
/// already complete.
bool int_complete_hop(mbuf::Mbuf& buf, std::uint64_t egress_ns) noexcept;

/// Copies hop record `index` (0 = oldest) out of the trailer. Returns
/// false on a missing trailer or out-of-range index.
bool int_read_hop(const mbuf::Mbuf& buf, std::uint16_t index,
                  IntHopRecord& out) noexcept;

/// Payload length excluding any INT trailer.
[[nodiscard]] std::uint32_t int_payload_len(const mbuf::Mbuf& buf) noexcept;

/// Trailer bytes for `hops` records (footer included).
[[nodiscard]] constexpr std::uint32_t int_trailer_len(
    std::uint16_t hops) noexcept {
  return static_cast<std::uint32_t>(sizeof(IntFooter)) +
         static_cast<std::uint32_t>(hops) *
             static_cast<std::uint32_t>(sizeof(IntHopRecord));
}

}  // namespace hw::pkt
