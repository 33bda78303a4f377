#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.h"
#include "pkt/flow_key.h"

/// \file match.h
/// OpenFlow-style match with per-field presence bits and IPv4 prefix
/// masks. This is the structure the p-2-p link detector reasons about: a
/// "port-to-port steering rule" is a match that constrains *only* in_port.
///
/// Compiled tests: Match::matches() and classifier::may_intersect() read
/// field by field, a branch per constrained field. The scans that run
/// them thousands of times per FlowMod burst (the revalidator's suspect
/// scans, the wildcard table scan) use a CompiledMatch instead: the test
/// reduced once to (mask, value) words over a PackedKey, so testing one
/// key is three AND/XORs and one compare, whatever the fields. The
/// field-by-field functions stay as the reference the compiled tests are
/// checked against (tests/control/compiled_match_test.cpp).

namespace hw::openflow {

/// A FlowKey packed field by field into fixed 64-bit words, the operand
/// of CompiledMatch. The fields are copied one at a time, never the
/// struct, whose padding bytes hold no defined value:
///   word 0: src_ip << 32 | dst_ip
///   word 1: in_port << 48 | ether_type << 32 | src_port << 16 | dst_port
///   word 2: ip_proto
struct PackedKey {
  std::array<std::uint64_t, 3> words{};
};

[[nodiscard]] inline PackedKey pack(const pkt::FlowKey& key) noexcept {
  return {{(std::uint64_t{key.src_ip} << 32) | key.dst_ip,
           (std::uint64_t{key.in_port} << 48) |
               (std::uint64_t{key.ether_type} << 32) |
               (std::uint64_t{key.src_port} << 16) | key.dst_port,
           key.ip_proto}};
}

/// A key test compiled to masked word compares: a key passes iff its
/// packed words equal `value` on every bit of `mask`. A default-built
/// test has an empty mask and passes every key.
class CompiledMatch {
 public:
  CompiledMatch() = default;
  /// `mask` holds, per field, the bits the test reads (0: wildcard);
  /// `value` the values those bits must have. Bits of `value` outside
  /// `mask` are ignored.
  CompiledMatch(const pkt::FlowKey& mask, const pkt::FlowKey& value) noexcept
      : mask_(pack(mask)), value_(pack(value)) {
    for (std::size_t w = 0; w < value_.words.size(); ++w) {
      value_.words[w] &= mask_.words[w];
    }
  }

  [[nodiscard]] bool matches(const PackedKey& key) const noexcept {
    std::uint64_t diff = 0;
    for (std::size_t w = 0; w < key.words.size(); ++w) {
      diff |= (key.words[w] & mask_.words[w]) ^ value_.words[w];
    }
    return diff == 0;
  }

  /// This test restricted to `bits` (a packed per-field mask, as above):
  /// it reads only the bits both masks read.
  [[nodiscard]] CompiledMatch within(const PackedKey& bits) const noexcept {
    CompiledMatch out = *this;
    for (std::size_t w = 0; w < bits.words.size(); ++w) {
      out.mask_.words[w] &= bits.words[w];
      out.value_.words[w] &= bits.words[w];
    }
    return out;
  }

 private:
  PackedKey mask_;
  PackedKey value_;
};

/// Bit flags marking which fields a Match constrains.
enum MatchField : std::uint32_t {
  kMatchInPort = 1u << 0,
  kMatchEthType = 1u << 1,
  kMatchIpProto = 1u << 2,
  kMatchIpSrc = 1u << 3,
  kMatchIpDst = 1u << 4,
  kMatchL4Src = 1u << 5,
  kMatchL4Dst = 1u << 6,
};

inline constexpr std::uint32_t kAllMatchFields =
    kMatchInPort | kMatchEthType | kMatchIpProto | kMatchIpSrc | kMatchIpDst |
    kMatchL4Src | kMatchL4Dst;

class Match {
 public:
  Match() = default;

  // --- builder-style setters (return *this for chaining) ---
  Match& in_port(PortId port) noexcept {
    fields_ |= kMatchInPort;
    in_port_ = port;
    return *this;
  }
  Match& eth_type(std::uint16_t type) noexcept {
    fields_ |= kMatchEthType;
    eth_type_ = type;
    return *this;
  }
  Match& ip_proto(std::uint8_t proto) noexcept {
    fields_ |= kMatchIpProto;
    ip_proto_ = proto;
    return *this;
  }
  /// IPv4 source with prefix length (32 = exact).
  Match& ip_src(std::uint32_t addr, std::uint8_t plen = 32) noexcept {
    fields_ |= kMatchIpSrc;
    ip_src_ = addr;
    ip_src_plen_ = plen;
    return *this;
  }
  Match& ip_dst(std::uint32_t addr, std::uint8_t plen = 32) noexcept {
    fields_ |= kMatchIpDst;
    ip_dst_ = addr;
    ip_dst_plen_ = plen;
    return *this;
  }
  Match& l4_src(std::uint16_t port) noexcept {
    fields_ |= kMatchL4Src;
    l4_src_ = port;
    return *this;
  }
  Match& l4_dst(std::uint16_t port) noexcept {
    fields_ |= kMatchL4Dst;
    l4_dst_ = port;
    return *this;
  }

  // --- accessors ---
  [[nodiscard]] std::uint32_t fields() const noexcept { return fields_; }
  [[nodiscard]] bool has(MatchField f) const noexcept {
    return (fields_ & f) != 0;
  }
  [[nodiscard]] PortId in_port_value() const noexcept { return in_port_; }
  [[nodiscard]] std::uint16_t eth_type_value() const noexcept {
    return eth_type_;
  }
  [[nodiscard]] std::uint8_t ip_proto_value() const noexcept {
    return ip_proto_;
  }
  [[nodiscard]] std::uint32_t ip_src_value() const noexcept { return ip_src_; }
  [[nodiscard]] std::uint32_t ip_dst_value() const noexcept { return ip_dst_; }
  [[nodiscard]] std::uint8_t ip_src_plen() const noexcept {
    return ip_src_plen_;
  }
  [[nodiscard]] std::uint8_t ip_dst_plen() const noexcept {
    return ip_dst_plen_;
  }
  [[nodiscard]] std::uint16_t l4_src_value() const noexcept { return l4_src_; }
  [[nodiscard]] std::uint16_t l4_dst_value() const noexcept { return l4_dst_; }

  /// True iff the packet key satisfies every constrained field.
  [[nodiscard]] bool matches(const pkt::FlowKey& key) const noexcept;

  /// matches() compiled: compile().matches(pack(key)) == matches(key)
  /// for every key.
  [[nodiscard]] CompiledMatch compile() const noexcept;

  /// True iff this match constrains exactly {in_port} and nothing else —
  /// the shape of a point-to-point steering rule.
  [[nodiscard]] bool is_in_port_only() const noexcept {
    return fields_ == kMatchInPort;
  }

  /// True iff no packet can satisfy both matches is *false*, i.e. the two
  /// matches could both apply to some packet. Conservative: returns true
  /// when unsure. Used by the p-2-p detector for dominance analysis.
  [[nodiscard]] bool overlaps(const Match& other) const noexcept;

  /// True iff every packet matching `other` also matches *this (this is a
  /// wildcard superset). Used for OpenFlow non-strict delete/modify.
  [[nodiscard]] bool contains(const Match& other) const noexcept;

  /// Structural equality (same fields, same values/masks) — the OpenFlow
  /// "strict" comparison together with priority.
  friend bool operator==(const Match& a, const Match& b) noexcept = default;

  [[nodiscard]] std::string to_string() const;

 private:
  std::uint32_t fields_ = 0;
  PortId in_port_ = 0;
  std::uint16_t eth_type_ = 0;
  std::uint8_t ip_proto_ = 0;
  std::uint8_t ip_src_plen_ = 32;
  std::uint8_t ip_dst_plen_ = 32;
  std::uint32_t ip_src_ = 0;
  std::uint32_t ip_dst_ = 0;
  std::uint16_t l4_src_ = 0;
  std::uint16_t l4_dst_ = 0;
};

/// Mask with the top `plen` bits set (plen in [0,32]).
[[nodiscard]] constexpr std::uint32_t prefix_mask(std::uint8_t plen) noexcept {
  return plen == 0 ? 0u : (0xffffffffu << (32 - plen));
}

}  // namespace hw::openflow
