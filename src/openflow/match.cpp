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

std::uint32_t ShapeIndex::hash_of(const PackedKey& key) const noexcept {
  // Multiply-xorshift over the three masked words: the high half of the
  // last product, whose low bits pick the bucket.
  std::uint64_t h = (key.words[0] & shape_.words[0]) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 32) ^ (key.words[1] & shape_.words[1])) *
      0xc2b2ae3d27d4eb4fULL;
  h = (h ^ (h >> 29) ^ (key.words[2] & shape_.words[2])) *
      0x165667b19e3779f9ULL;
  return static_cast<std::uint32_t>(h >> 32);
}

void ShapeIndex::push_front(std::uint32_t slot) {
  Link& link = links_[slot];
  std::uint32_t& head = heads_[bucket(link.hash)];
  link.prev = kNil;
  link.next = head;
  if (head != kNil) links_[head].prev = slot;
  head = slot;
}

void ShapeIndex::grow() {
  heads_.assign(std::max<std::size_t>(16, heads_.size() * 2), kNil);
  for (std::uint32_t slot = 0; slot < links_.size(); ++slot) {
    if (links_[slot].prev != kUnlinked) push_front(slot);
  }
}

void ShapeIndex::link(std::uint32_t slot, const PackedKey& key) {
  if (slot >= links_.size()) {
    links_.resize(std::max<std::size_t>(slot + 1, links_.size() * 2));
  }
  links_[slot].hash = hash_of(key);
  ++linked_;
  if (linked_ > heads_.size()) {
    links_[slot].prev = kNil;  // filed by the re-filing pass
    grow();
    return;
  }
  push_front(slot);
}

void ShapeIndex::unlink(std::uint32_t slot) noexcept {
  if (slot >= links_.size() || links_[slot].prev == kUnlinked) return;
  Link& link = links_[slot];
  if (link.prev == kNil) {
    heads_[bucket(link.hash)] = link.next;
  } else {
    links_[link.prev].next = link.next;
  }
  if (link.next != kNil) links_[link.next].prev = link.prev;
  link.prev = kUnlinked;
  link.next = kNil;
  --linked_;
}

void ShapeIndex::relink(std::uint32_t slot, const PackedKey& key) {
  if (slot < links_.size() && links_[slot].prev != kUnlinked &&
      links_[slot].hash == hash_of(key)) {
    return;  // same bucket: nothing to re-file
  }
  unlink(slot);
  link(slot, key);
}

void ShapeIndex::move(std::uint32_t from, std::uint32_t to) noexcept {
  if (from >= links_.size() || links_[from].prev == kUnlinked) return;
  const Link moved = links_[from];
  links_[to] = moved;
  if (moved.prev == kNil) {
    heads_[bucket(moved.hash)] = to;
  } else {
    links_[moved.prev].next = to;
  }
  if (moved.next != kNil) links_[moved.next].prev = to;
  links_[from] = Link{};
}

void ShapeIndex::collect(const PackedKey& value,
                         std::vector<std::uint32_t>& out) const {
  if (heads_.empty()) return;
  for (std::uint32_t slot = heads_[bucket(hash_of(value))]; slot != kNil;
       slot = links_[slot].next) {
    out.push_back(slot);
  }
}

void ShapeIndex::clear() noexcept {
  std::fill(heads_.begin(), heads_.end(), kNil);
  std::fill(links_.begin(), links_.end(), Link{});
  linked_ = 0;
}

std::size_t ShapeIndexSet::position(const PackedKey& shape) const noexcept {
  std::size_t p = 0;
  while (p < indexes_.size() && !(indexes_[p].index.shape() == shape)) ++p;
  return p;
}

bool ShapeIndexSet::serves(std::span<const CompiledMatch> tests,
                           std::uint64_t drain) {
  std::erase_if(indexes_, [drain](const Entry& e) {
    return drain - e.last_use > kIdleDrains;
  });
  for (const CompiledMatch& test : tests) {
    if (test.passes_all() || position(test.mask()) == indexes_.size()) {
      return false;
    }
  }
  for (const CompiledMatch& test : tests) {
    indexes_[position(test.mask())].last_use = drain;
  }
  return true;
}

std::size_t ShapeIndexSet::collect(std::span<const CompiledMatch> tests,
                                   std::vector<std::uint32_t>& out) const {
  for (const CompiledMatch& test : tests) {
    indexes_[position(test.mask())].index.collect(test.value(), out);
  }
  return tests.size();
}

std::size_t ShapeIndexSet::make_room(std::span<const CompiledMatch> tests,
                                     std::uint64_t drain) {
  // The distinct shapes this drain needed, and which of them are new.
  std::array<PackedKey, kMaxIndexes> needed{};
  std::size_t n_needed = 0;
  std::array<PackedKey, kMaxIndexes> missing{};
  std::size_t n_missing = 0;
  for (const CompiledMatch& test : tests) {
    if (test.passes_all()) continue;
    const PackedKey& shape = test.mask();
    if (std::find(needed.begin(), needed.begin() + n_needed, shape) !=
        needed.begin() + n_needed) {
      continue;
    }
    if (n_needed == kMaxIndexes) return indexes_.size();  // too many at once
    needed[n_needed++] = shape;
    if (const std::size_t p = position(shape); p < indexes_.size()) {
      indexes_[p].last_use = drain;
    } else {
      missing[n_missing++] = shape;
    }
  }
  // Room for the new ones: retire the least recently used of the rest.
  // The needed ones were stamped `drain`, so they are never the oldest
  // while another remains.
  while (indexes_.size() + n_missing > kMaxIndexes) {
    indexes_.erase(std::min_element(
        indexes_.begin(), indexes_.end(), [](const Entry& a, const Entry& b) {
          return a.last_use < b.last_use;
        }));
  }
  const std::size_t first_new = indexes_.size();
  for (std::size_t m = 0; m < n_missing; ++m) {
    indexes_.push_back(Entry{ShapeIndex(missing[m]), drain});
  }
  return first_new;
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

MaskSpec mask_of(const Match& match) noexcept {
  MaskSpec mask;
  mask.fields = match.fields();
  if (match.has(kMatchIpSrc)) mask.ip_src_plen = match.ip_src_plen();
  if (match.has(kMatchIpDst)) mask.ip_dst_plen = match.ip_dst_plen();
  return mask;
}

void unite(MaskSpec& mask, const Match& match) noexcept {
  mask.fields |= match.fields();
  if (match.has(kMatchIpSrc)) {
    mask.ip_src_plen = std::max(mask.ip_src_plen, match.ip_src_plen());
  }
  if (match.has(kMatchIpDst)) {
    mask.ip_dst_plen = std::max(mask.ip_dst_plen, match.ip_dst_plen());
  }
}

std::string MaskSpec::to_string() const {
  if (fields == 0) return "any";
  std::string out;
  char buf[32];
  auto append = [&out](const char* text) {
    if (!out.empty()) out += ",";
    out += text;
  };
  if (fields & kMatchInPort) append("in_port");
  if (fields & kMatchEthType) append("eth_type");
  if (fields & kMatchIpProto) append("ip_proto");
  if (fields & kMatchIpSrc) {
    std::snprintf(buf, sizeof(buf), "ip_src/%u", ip_src_plen);
    append(buf);
  }
  if (fields & kMatchIpDst) {
    std::snprintf(buf, sizeof(buf), "ip_dst/%u", ip_dst_plen);
    append(buf);
  }
  if (fields & kMatchL4Src) append("l4_src");
  if (fields & kMatchL4Dst) append("l4_dst");
  return out;
}

}  // namespace hw::openflow
