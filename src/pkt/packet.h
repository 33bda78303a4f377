#pragma once

#include <cstdint>
#include <optional>

#include "mbuf/mbuf.h"
#include "pkt/flow_key.h"
#include "pkt/headers.h"

/// \file packet.h
/// Frame construction and parsing on top of Mbuf.

namespace hw::pkt {

/// Parameters for building a test frame. Defaults produce the paper's
/// 64-byte UDP workload.
struct FrameSpec {
  MacAddr src_mac = MacAddr::from_index(1);
  MacAddr dst_mac = MacAddr::from_index(2);
  std::uint32_t src_ip = ipv4(10, 0, 0, 1);
  std::uint32_t dst_ip = ipv4(10, 0, 0, 2);
  std::uint8_t ip_proto = kIpProtoUdp;  ///< kIpProtoUdp or kIpProtoTcp
  std::uint16_t src_port = 1000;
  std::uint16_t dst_port = 2000;
  std::uint32_t frame_len = 64;  ///< total L2 frame length incl. 4 B FCS slot
};

/// Writes an Ethernet+IPv4+UDP/TCP frame described by `spec` into `buf`.
/// Sets buf->data_len. Returns false (leaving the buffer unspecified) if
/// the spec is invalid (frame too short/long for the headers).
bool build_frame(mbuf::Mbuf& buf, const FrameSpec& spec) noexcept;

/// Zero-copy parsed view over a frame. Pointers alias the mbuf payload.
struct PacketView {
  const EthernetHeader* eth = nullptr;
  const Ipv4Header* ip = nullptr;     ///< null unless IPv4
  const UdpHeader* udp = nullptr;     ///< null unless UDP
  const TcpHeader* tcp = nullptr;     ///< null unless TCP
};

/// Parses the frame in `buf`; returns std::nullopt for truncated or
/// malformed frames. Never throws (hot path).
[[nodiscard]] std::optional<PacketView> parse(const mbuf::Mbuf& buf) noexcept;

/// Extracts the classifier key. For non-IPv4 frames the IP/L4 fields stay
/// zero (they are wildcarded by matches that do not care). `in_port` is
/// taken from the mbuf metadata.
[[nodiscard]] FlowKey extract_flow_key(const mbuf::Mbuf& buf) noexcept;

/// The same key, zeroed and then filled field by field in `key` itself,
/// whatever `key` held before (the by-value form wraps this one). The
/// switch's burst loop builds each key in its batch slot and hashes it
/// there: copying a returned key into the slot would be a wide load of
/// bytes just written by narrow stores, which store-to-load forwarding
/// cannot serve, so the copy would wait for every store to reach L1.
void extract_flow_key(const mbuf::Mbuf& buf, FlowKey& key) noexcept;

/// Returns the cached flow hash, computing and caching it if absent.
[[nodiscard]] std::uint32_t flow_hash_of(mbuf::Mbuf& buf) noexcept;

}  // namespace hw::pkt
