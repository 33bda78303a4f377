#include "pkt/packet.h"

#include <cstring>

#include "common/units.h"
#include "pkt/checksum.h"

namespace hw::pkt {

namespace {
constexpr std::size_t kEthLen = sizeof(EthernetHeader);
constexpr std::size_t kIpLen = sizeof(Ipv4Header);
}  // namespace

bool build_frame(mbuf::Mbuf& buf, const FrameSpec& spec) noexcept {
  const std::size_t l4_len =
      spec.ip_proto == kIpProtoTcp ? sizeof(TcpHeader) : sizeof(UdpHeader);
  const std::size_t min_len = kEthLen + kIpLen + l4_len;
  if (spec.frame_len < min_len || spec.frame_len > mbuf::kMbufDataRoom) {
    return false;
  }

  std::byte* base = buf.data;
  std::memset(base, 0, spec.frame_len);

  auto* eth = reinterpret_cast<EthernetHeader*>(base);
  eth->set_dst(spec.dst_mac);
  eth->set_src(spec.src_mac);
  eth->set_ether_type(kEtherTypeIpv4);

  auto* ip = reinterpret_cast<Ipv4Header*>(base + kEthLen);
  ip->version_ihl = static_cast<std::byte>(0x45);
  // IP total length excludes L2 header and the 4-byte FCS accounted in
  // frame_len (we reserve the trailing 4 bytes as the FCS slot).
  const auto ip_total =
      static_cast<std::uint16_t>(spec.frame_len - kEthLen - 4);
  ip->set_total_len(ip_total);
  ip->set_ttl(64);
  ip->set_proto(spec.ip_proto);
  ip->set_src_addr(spec.src_ip);
  ip->set_dst_addr(spec.dst_ip);
  ip->set_hdr_checksum(0);
  ip->set_hdr_checksum(internet_checksum(
      {reinterpret_cast<const std::byte*>(ip), kIpLen}));

  if (spec.ip_proto == kIpProtoTcp) {
    auto* tcp = reinterpret_cast<TcpHeader*>(base + kEthLen + kIpLen);
    tcp->set_sport(spec.src_port);
    tcp->set_dport(spec.dst_port);
    tcp->data_off_flags[0] = static_cast<std::byte>(0x50);  // 20 B header
  } else {
    auto* udp = reinterpret_cast<UdpHeader*>(base + kEthLen + kIpLen);
    udp->set_sport(spec.src_port);
    udp->set_dport(spec.dst_port);
    udp->set_len(static_cast<std::uint16_t>(ip_total - kIpLen));
  }

  buf.data_len = spec.frame_len;
  buf.flow_hash = 0;
  return true;
}

std::optional<PacketView> parse(const mbuf::Mbuf& buf) noexcept {
  PacketView view;
  if (buf.data_len < kEthLen) return std::nullopt;
  view.eth = reinterpret_cast<const EthernetHeader*>(buf.data);
  if (view.eth->ether_type() != kEtherTypeIpv4) return view;

  if (buf.data_len < kEthLen + kIpLen) return std::nullopt;
  const auto* ip = reinterpret_cast<const Ipv4Header*>(buf.data + kEthLen);
  if (ip->version() != 4 || ip->header_len() < kIpLen) return std::nullopt;
  if (buf.data_len < kEthLen + ip->header_len()) return std::nullopt;
  view.ip = ip;

  const std::size_t l4_off = kEthLen + ip->header_len();
  if (ip->proto() == kIpProtoUdp &&
      buf.data_len >= l4_off + sizeof(UdpHeader)) {
    view.udp = reinterpret_cast<const UdpHeader*>(buf.data + l4_off);
  } else if (ip->proto() == kIpProtoTcp &&
             buf.data_len >= l4_off + sizeof(TcpHeader)) {
    view.tcp = reinterpret_cast<const TcpHeader*>(buf.data + l4_off);
  }
  return view;
}

void extract_flow_key(const mbuf::Mbuf& buf, FlowKey& key) noexcept {
  key = FlowKey{};
  key.in_port = buf.in_port;
  const auto view = parse(buf);
  if (!view.has_value() || view->eth == nullptr) return;
  key.ether_type = view->eth->ether_type();
  if (view->ip != nullptr) {
    key.src_ip = view->ip->src_addr();
    key.dst_ip = view->ip->dst_addr();
    key.ip_proto = view->ip->proto();
    if (view->udp != nullptr) {
      key.src_port = view->udp->sport();
      key.dst_port = view->udp->dport();
    } else if (view->tcp != nullptr) {
      key.src_port = view->tcp->sport();
      key.dst_port = view->tcp->dport();
    }
  }
}

FlowKey extract_flow_key(const mbuf::Mbuf& buf) noexcept {
  FlowKey key;
  extract_flow_key(buf, key);
  return key;
}

std::uint32_t flow_hash_of(mbuf::Mbuf& buf) noexcept {
  if (buf.flow_hash == 0) {
    buf.flow_hash = flow_key_hash(extract_flow_key(buf));
  }
  return buf.flow_hash;
}

}  // namespace hw::pkt
