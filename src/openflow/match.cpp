#include "openflow/match.h"

#include <algorithm>
#include <cstdio>

#include "pkt/headers.h"

namespace hw::openflow {

bool Match::matches(const pkt::FlowKey& key) const noexcept {
  if (has(kMatchInPort) && key.in_port != in_port_) return false;
  if (has(kMatchEthType) && key.ether_type != eth_type_) return false;
  if (has(kMatchIpProto) && key.ip_proto != ip_proto_) return false;
  if (has(kMatchIpSrc)) {
    const std::uint32_t mask = prefix_mask(ip_src_plen_);
    if ((key.src_ip & mask) != (ip_src_ & mask)) return false;
  }
  if (has(kMatchIpDst)) {
    const std::uint32_t mask = prefix_mask(ip_dst_plen_);
    if ((key.dst_ip & mask) != (ip_dst_ & mask)) return false;
  }
  if (has(kMatchL4Src) && key.src_port != l4_src_) return false;
  if (has(kMatchL4Dst) && key.dst_port != l4_dst_) return false;
  return true;
}

CompiledMatch Match::compile() const noexcept {
  // matches() field by field: an exact field reads all its bits, an IPv4
  // address its prefix, an unconstrained field none.
  pkt::FlowKey bits;
  if (has(kMatchInPort)) bits.in_port = 0xffff;
  if (has(kMatchEthType)) bits.ether_type = 0xffff;
  if (has(kMatchIpProto)) bits.ip_proto = 0xff;
  if (has(kMatchIpSrc)) bits.src_ip = prefix_mask(ip_src_plen_);
  if (has(kMatchIpDst)) bits.dst_ip = prefix_mask(ip_dst_plen_);
  if (has(kMatchL4Src)) bits.src_port = 0xffff;
  if (has(kMatchL4Dst)) bits.dst_port = 0xffff;
  pkt::FlowKey value;
  value.in_port = in_port_;
  value.ether_type = eth_type_;
  value.ip_proto = ip_proto_;
  value.src_ip = ip_src_;
  value.dst_ip = ip_dst_;
  value.src_port = l4_src_;
  value.dst_port = l4_dst_;
  return {bits, value};
}

bool Match::overlaps(const Match& other) const noexcept {
  // Two matches are disjoint iff some field is constrained by both to
  // incompatible values. Anything else conservatively overlaps.
  const std::uint32_t both = fields_ & other.fields_;
  if ((both & kMatchInPort) && in_port_ != other.in_port_) return false;
  if ((both & kMatchEthType) && eth_type_ != other.eth_type_) return false;
  if ((both & kMatchIpProto) && ip_proto_ != other.ip_proto_) return false;
  if (both & kMatchIpSrc) {
    const std::uint32_t mask =
        prefix_mask(std::min(ip_src_plen_, other.ip_src_plen_));
    if ((ip_src_ & mask) != (other.ip_src_ & mask)) return false;
  }
  if (both & kMatchIpDst) {
    const std::uint32_t mask =
        prefix_mask(std::min(ip_dst_plen_, other.ip_dst_plen_));
    if ((ip_dst_ & mask) != (other.ip_dst_ & mask)) return false;
  }
  if ((both & kMatchL4Src) && l4_src_ != other.l4_src_) return false;
  if ((both & kMatchL4Dst) && l4_dst_ != other.l4_dst_) return false;
  return true;
}

bool Match::contains(const Match& other) const noexcept {
  // Every field we constrain must be constrained at least as tightly by
  // `other` to a compatible value.
  if (has(kMatchInPort) &&
      (!other.has(kMatchInPort) || other.in_port_ != in_port_)) {
    return false;
  }
  if (has(kMatchEthType) &&
      (!other.has(kMatchEthType) || other.eth_type_ != eth_type_)) {
    return false;
  }
  if (has(kMatchIpProto) &&
      (!other.has(kMatchIpProto) || other.ip_proto_ != ip_proto_)) {
    return false;
  }
  if (has(kMatchIpSrc)) {
    if (!other.has(kMatchIpSrc) || other.ip_src_plen_ < ip_src_plen_) {
      return false;
    }
    const std::uint32_t mask = prefix_mask(ip_src_plen_);
    if ((other.ip_src_ & mask) != (ip_src_ & mask)) return false;
  }
  if (has(kMatchIpDst)) {
    if (!other.has(kMatchIpDst) || other.ip_dst_plen_ < ip_dst_plen_) {
      return false;
    }
    const std::uint32_t mask = prefix_mask(ip_dst_plen_);
    if ((other.ip_dst_ & mask) != (ip_dst_ & mask)) return false;
  }
  if (has(kMatchL4Src) &&
      (!other.has(kMatchL4Src) || other.l4_src_ != l4_src_)) {
    return false;
  }
  if (has(kMatchL4Dst) &&
      (!other.has(kMatchL4Dst) || other.l4_dst_ != l4_dst_)) {
    return false;
  }
  return true;
}

std::string Match::to_string() const {
  if (fields_ == 0) return "any";
  std::string out;
  char buf[64];
  auto append = [&out](const char* text) {
    if (!out.empty()) out += ",";
    out += text;
  };
  if (has(kMatchInPort)) {
    std::snprintf(buf, sizeof(buf), "in_port=%u", in_port_);
    append(buf);
  }
  if (has(kMatchEthType)) {
    std::snprintf(buf, sizeof(buf), "eth_type=0x%04x", eth_type_);
    append(buf);
  }
  if (has(kMatchIpProto)) {
    std::snprintf(buf, sizeof(buf), "ip_proto=%u", ip_proto_);
    append(buf);
  }
  if (has(kMatchIpSrc)) {
    std::snprintf(buf, sizeof(buf), "ip_src=%s/%u",
                  pkt::ipv4_to_string(ip_src_).c_str(), ip_src_plen_);
    append(buf);
  }
  if (has(kMatchIpDst)) {
    std::snprintf(buf, sizeof(buf), "ip_dst=%s/%u",
                  pkt::ipv4_to_string(ip_dst_).c_str(), ip_dst_plen_);
    append(buf);
  }
  if (has(kMatchL4Src)) {
    std::snprintf(buf, sizeof(buf), "l4_src=%u", l4_src_);
    append(buf);
  }
  if (has(kMatchL4Dst)) {
    std::snprintf(buf, sizeof(buf), "l4_dst=%u", l4_dst_);
    append(buf);
  }
  return out;
}

}  // namespace hw::openflow
