#include "classifier/mask.h"

#include <algorithm>

namespace hw::classifier {

using openflow::kMatchEthType;
using openflow::kMatchInPort;
using openflow::kMatchIpDst;
using openflow::kMatchIpProto;
using openflow::kMatchIpSrc;
using openflow::kMatchL4Dst;
using openflow::kMatchL4Src;
using openflow::prefix_mask;

pkt::FlowKey apply(const MaskSpec& mask, const pkt::FlowKey& key) noexcept {
  pkt::FlowKey masked;  // fields not covered by the mask stay zero
  if (mask.fields & kMatchInPort) masked.in_port = key.in_port;
  if (mask.fields & kMatchEthType) masked.ether_type = key.ether_type;
  if (mask.fields & kMatchIpProto) masked.ip_proto = key.ip_proto;
  if (mask.fields & kMatchIpSrc) {
    masked.src_ip = key.src_ip & prefix_mask(mask.ip_src_plen);
  }
  if (mask.fields & kMatchIpDst) {
    masked.dst_ip = key.dst_ip & prefix_mask(mask.ip_dst_plen);
  }
  if (mask.fields & kMatchL4Src) masked.src_port = key.src_port;
  if (mask.fields & kMatchL4Dst) masked.dst_port = key.dst_port;
  return masked;
}

bool may_intersect(const MaskSpec& mask, const pkt::FlowKey& masked_key,
                   const openflow::Match& match) noexcept {
  const std::uint32_t common = mask.fields & match.fields();
  if ((common & kMatchInPort) && masked_key.in_port != match.in_port_value()) {
    return false;
  }
  if ((common & kMatchEthType) &&
      masked_key.ether_type != match.eth_type_value()) {
    return false;
  }
  if ((common & kMatchIpProto) &&
      masked_key.ip_proto != match.ip_proto_value()) {
    return false;
  }
  if (common & kMatchIpSrc) {
    // Only the prefix bits BOTH sides pin can disagree; deeper bits are
    // free on at least one side.
    const std::uint32_t m =
        prefix_mask(std::min(mask.ip_src_plen, match.ip_src_plen()));
    if ((masked_key.src_ip & m) != (match.ip_src_value() & m)) return false;
  }
  if (common & kMatchIpDst) {
    const std::uint32_t m =
        prefix_mask(std::min(mask.ip_dst_plen, match.ip_dst_plen()));
    if ((masked_key.dst_ip & m) != (match.ip_dst_value() & m)) return false;
  }
  if ((common & kMatchL4Src) && masked_key.src_port != match.l4_src_value()) {
    return false;
  }
  if ((common & kMatchL4Dst) && masked_key.dst_port != match.l4_dst_value()) {
    return false;
  }
  return true;
}

openflow::CompiledMatch compile_intersect(
    const MaskSpec& mask, const openflow::Match& match) noexcept {
  // The match's own test, read only where the subtable pins bits too:
  // the fields both sides constrain and, of an IPv4 address, the shorter
  // of the two prefixes. Projecting an all-ones key yields those bits.
  constexpr pkt::FlowKey kAllOnes{0xffff, 0xffff, 0xffffffffu, 0xffffffffu,
                                  0xff,   0xffff, 0xffff};
  return match.compile().within(openflow::pack(apply(mask, kAllOnes)));
}

bool subsumes(const MaskSpec& outer, const MaskSpec& inner) noexcept {
  if ((inner.fields & outer.fields) != inner.fields) return false;
  if ((inner.fields & kMatchIpSrc) && outer.ip_src_plen < inner.ip_src_plen) {
    return false;
  }
  if ((inner.fields & kMatchIpDst) && outer.ip_dst_plen < inner.ip_dst_plen) {
    return false;
  }
  return true;
}

}  // namespace hw::classifier
