#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

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
///
/// Shape indexes: the revalidator runs each FlowMod burst's compiled
/// tests against both cache tiers. Rather than testing every slot, each
/// tier keeps a ShapeIndex per test shape it has needed lately, and a
/// test reads only the slots of the one bucket its value hashes to.

namespace hw::openflow {

/// A FlowKey packed field by field into fixed 64-bit words, the operand
/// of CompiledMatch. The fields are copied one at a time, never the
/// struct, whose padding bytes hold no defined value:
///   word 0: src_ip << 32 | dst_ip
///   word 1: in_port << 48 | ether_type << 32 | src_port << 16 | dst_port
///   word 2: ip_proto
struct PackedKey {
  std::array<std::uint64_t, 3> words{};

  friend bool operator==(const PackedKey&, const PackedKey&) = default;
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

  /// The bits the test reads: its *shape*, which ShapeIndex buckets by.
  [[nodiscard]] const PackedKey& mask() const noexcept { return mask_; }
  /// The values those bits must have (zero outside mask()).
  [[nodiscard]] const PackedKey& value() const noexcept { return value_; }
  /// True iff the test reads no bit, so every key passes it.
  [[nodiscard]] bool passes_all() const noexcept {
    return (mask_.words[0] | mask_.words[1] | mask_.words[2]) == 0;
  }

 private:
  PackedKey mask_;
  PackedKey value_;
};

/// The slots of one container (a megaflow subtable, the exact-match
/// cache) bucketed by their packed keys under one *shape*, the mask() of
/// a CompiledMatch. Every slot that passes a test of that shape has the
/// masked key test.value(), so it sits in the one bucket that value
/// hashes to: the test's candidates are that bucket, and the test itself
/// then filters them. Buckets are doubly linked through per-slot links,
/// so a slot leaves its bucket in O(1) however many share it. The index
/// holds no key: the container keeps it exact by calling link, unlink,
/// relink and move at every change to a slot's key or position.
class ShapeIndex {
 public:
  explicit ShapeIndex(const PackedKey& shape) : shape_(shape) {}

  [[nodiscard]] const PackedKey& shape() const noexcept { return shape_; }

  /// Files slot `slot`, not yet linked, under its packed key `key`.
  void link(std::uint32_t slot, const PackedKey& key);
  /// Takes `slot` out of its bucket; a no-op for an unlinked slot.
  void unlink(std::uint32_t slot) noexcept;
  /// Files `slot` under its new key `key`, leaving it in place when the
  /// masked key hashes as before.
  void relink(std::uint32_t slot, const PackedKey& key);
  /// The slot at position `from` moved to `to`, which is unlinked: `to`
  /// takes over `from`'s place in its bucket, and `from` is unlinked.
  void move(std::uint32_t from, std::uint32_t to) noexcept;
  /// Appends every slot of the bucket `value`, a masked key of this
  /// shape, hashes to.
  void collect(const PackedKey& value, std::vector<std::uint32_t>& out) const;
  /// Unlinks every slot.
  void clear() noexcept;
  /// Sizes the per-slot links for positions below `slots` up front.
  void reserve(std::uint32_t slots) {
    if (links_.size() < slots) links_.resize(slots);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;       ///< no slot
  static constexpr std::uint32_t kUnlinked = 0xfffffffeu;  ///< prev: not filed
  struct Link {
    std::uint32_t next = kNil;
    std::uint32_t prev = kUnlinked;  ///< kNil: first of its bucket
    std::uint32_t hash = 0;          ///< of the slot's masked key
  };

  [[nodiscard]] std::uint32_t hash_of(const PackedKey& key) const noexcept;
  [[nodiscard]] std::size_t bucket(std::uint32_t hash) const noexcept {
    return hash & (heads_.size() - 1);
  }
  void push_front(std::uint32_t slot);
  /// Doubles the buckets (at least 16) and re-files every linked slot.
  void grow();

  PackedKey shape_;
  std::vector<std::uint32_t> heads_;  ///< first slot of each bucket
  std::vector<Link> links_;           ///< per slot position
  std::size_t linked_ = 0;
};

/// The shape indexes of one container. A drain asks serves() whether
/// every test it runs has an index; if so collect() gathers the
/// candidates, and if not the drain passes over every slot and calls
/// build() afterwards. Whether an index exists depends on drain counts
/// alone, never on time: at most kMaxIndexes live at once, and one is
/// retired after kIdleDrains drains without use.
class ShapeIndexSet {
 public:
  static constexpr std::size_t kMaxIndexes = 4;
  static constexpr std::uint64_t kIdleDrains = 64;

  /// The hot-path test: with no index, slot changes cost nothing more.
  [[nodiscard]] bool empty() const noexcept { return indexes_.empty(); }

  /// Drain number `drain` (counted by the container, from 1) runs
  /// `tests`. Retires the indexes idle too long, then answers whether
  /// each test's shape is indexed (a test reading no bit never is: every
  /// slot is its candidate), stamping the ones it will use.
  [[nodiscard]] bool serves(std::span<const CompiledMatch> tests,
                            std::uint64_t drain);
  /// After serves() said yes: appends each test's bucket to `out` (a
  /// slot may appear once per test) and returns the buckets probed.
  std::size_t collect(std::span<const CompiledMatch> tests,
                      std::vector<std::uint32_t>& out) const;
  /// After a pass over every slot because serves() said no: indexes the
  /// shapes of `tests` that are not, unless more distinct shapes than
  /// kMaxIndexes are needed at once, making room by retiring the least
  /// recently used. `key_of(i)` gives slot i's packed key, or nullopt for
  /// an empty slot, for every slot position i < `slots`.
  template <typename KeyOf>
  void build(std::span<const CompiledMatch> tests, std::uint64_t drain,
             std::uint32_t slots, KeyOf&& key_of) {
    const std::size_t first_new = make_room(tests, drain);
    if (first_new == indexes_.size()) return;
    for (std::size_t x = first_new; x < indexes_.size(); ++x) {
      indexes_[x].index.reserve(slots);
    }
    for (std::uint32_t i = 0; i < slots; ++i) {
      const std::optional<PackedKey> key = key_of(i);
      if (!key) continue;
      for (std::size_t x = first_new; x < indexes_.size(); ++x) {
        indexes_[x].index.link(i, *key);
      }
    }
  }

  // Slot upkeep, applied to every index.
  void link(std::uint32_t slot, const PackedKey& key) {
    for (Entry& e : indexes_) e.index.link(slot, key);
  }
  void unlink(std::uint32_t slot) noexcept {
    for (Entry& e : indexes_) e.index.unlink(slot);
  }
  void relink(std::uint32_t slot, const PackedKey& key) {
    for (Entry& e : indexes_) e.index.relink(slot, key);
  }
  void move(std::uint32_t from, std::uint32_t to) noexcept {
    for (Entry& e : indexes_) e.index.move(from, to);
  }
  void clear() noexcept {
    for (Entry& e : indexes_) e.index.clear();
  }

 private:
  struct Entry {
    ShapeIndex index;
    std::uint64_t last_use = 0;  ///< the last drain that used it
  };
  /// Position of the index of `shape`, or size() if none.
  [[nodiscard]] std::size_t position(const PackedKey& shape) const noexcept;
  /// build()'s bookkeeping: adds an empty index per missing shape and
  /// returns the position of the first one added (size() if none).
  std::size_t make_room(std::span<const CompiledMatch> tests,
                        std::uint64_t drain);

  std::vector<Entry> indexes_;
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

/// Wildcard masks over pkt::FlowKey — the "tuple" of tuple-space search.
///
/// A MaskSpec records which FlowKey fields are significant (as
/// MatchField bits) plus the IPv4 prefix lengths for the two address
/// fields. All megaflows sharing one MaskSpec live in one subtable and
/// are compared by masked-key equality, exactly like the miniflow masks
/// that partition the OVS datapath classifier (dpcls). The flow table
/// keeps one per rule position: the unwildcard set of a lookup that
/// examined every rule up to it.
struct MaskSpec {
  std::uint32_t fields = 0;       ///< MatchField bits
  std::uint8_t ip_src_plen = 0;   ///< meaningful iff kMatchIpSrc set
  std::uint8_t ip_dst_plen = 0;   ///< meaningful iff kMatchIpDst set

  friend bool operator==(const MaskSpec&, const MaskSpec&) = default;

  [[nodiscard]] bool empty() const noexcept { return fields == 0; }
  [[nodiscard]] std::string to_string() const;
};

/// The mask a single rule unwildcards: every field it constrains.
[[nodiscard]] MaskSpec mask_of(const Match& match) noexcept;

/// Widens `mask` to also cover every field `match` constrains (prefix
/// lengths take the max, i.e. the more specific one): the analogue of
/// OVS's flow_wildcards folding during an upcall.
void unite(MaskSpec& mask, const Match& match) noexcept;

}  // namespace hw::openflow
