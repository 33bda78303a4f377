#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "classifier/mask.h"
#include "common/rng.h"
#include "openflow/match.h"

/// \file compiled_match_test.cpp
/// EQUIVALENCE PROPERTY. The revalidator's suspect scans and the wildcard
/// table scan test keys with compiled (mask, value) words instead of the
/// field-by-field Match::matches and classifier::may_intersect, which
/// stay as the reference. For 24 seeds, every subset of the seven match
/// fields (and, for may_intersect, every subset of a subtable mask's
/// fields) is paired with random values, the prefix lengths that sit on
/// word and field edges (0, 1, 31, 32, plus random ones), zero-valued
/// fields, in_port 0, and keys drawn to land on both sides of each test.
/// Any disagreement is a wrong suspect set or a wrong winner
/// (flowtable_test's FlowTableModelTest checks the table scan's winner).

namespace hw::classifier {
namespace {

using openflow::CompiledMatch;
using openflow::Match;
using openflow::pack;

constexpr std::uint32_t kSeeds = 24;
constexpr std::uint32_t kFieldSubsets = 1u << 7;  // MatchField bits 0..6

constexpr std::array<std::uint32_t, 7> kFields = {
    openflow::kMatchInPort, openflow::kMatchEthType, openflow::kMatchIpProto,
    openflow::kMatchIpSrc,  openflow::kMatchIpDst,   openflow::kMatchL4Src,
    openflow::kMatchL4Dst};

/// A random value of `bits` width: zero a quarter of the time, all ones
/// an eighth, else uniform.
std::uint32_t draw_value(Rng& rng, unsigned bits) {
  const std::uint32_t all =
      bits == 32 ? 0xffffffffu : ((1u << bits) - 1u);
  if (rng.chance(1, 4)) return 0;
  if (rng.chance(1, 8)) return all;
  return static_cast<std::uint32_t>(rng.next()) & all;
}

/// Prefix lengths at the edges (0, 1, 31, 32) half the time.
std::uint8_t draw_plen(Rng& rng) {
  constexpr std::array<std::uint8_t, 4> kEdges = {0, 1, 31, 32};
  if (rng.chance(1, 2)) return kEdges[rng.next_below(kEdges.size())];
  return static_cast<std::uint8_t>(rng.next_below(33));
}

Match draw_match(Rng& rng, std::uint32_t fields) {
  Match m;
  if (fields & openflow::kMatchInPort) {
    m.in_port(static_cast<PortId>(draw_value(rng, 16)));
  }
  if (fields & openflow::kMatchEthType) {
    m.eth_type(static_cast<std::uint16_t>(draw_value(rng, 16)));
  }
  if (fields & openflow::kMatchIpProto) {
    m.ip_proto(static_cast<std::uint8_t>(draw_value(rng, 8)));
  }
  if (fields & openflow::kMatchIpSrc) {
    m.ip_src(draw_value(rng, 32), draw_plen(rng));
  }
  if (fields & openflow::kMatchIpDst) {
    m.ip_dst(draw_value(rng, 32), draw_plen(rng));
  }
  if (fields & openflow::kMatchL4Src) {
    m.l4_src(static_cast<std::uint16_t>(draw_value(rng, 16)));
  }
  if (fields & openflow::kMatchL4Dst) {
    m.l4_dst(static_cast<std::uint16_t>(draw_value(rng, 16)));
  }
  return m;
}

MaskSpec draw_mask(Rng& rng, std::uint32_t fields) {
  MaskSpec mask;
  mask.fields = fields;
  if (fields & openflow::kMatchIpSrc) mask.ip_src_plen = draw_plen(rng);
  if (fields & openflow::kMatchIpDst) mask.ip_dst_plen = draw_plen(rng);
  return mask;
}

/// A key near `m`: each field copies the match's value (an IPv4 address
/// keeps its prefix with random low bits) or is redrawn, and a quarter
/// of the keys then flip one random bit of one field, so both answers
/// occur for every field subset.
pkt::FlowKey draw_key(Rng& rng, const Match& m) {
  const auto keep = [&rng] { return rng.chance(3, 4); };
  pkt::FlowKey key;
  key.in_port = keep() ? m.in_port_value()
                       : static_cast<PortId>(draw_value(rng, 16));
  key.ether_type = keep() ? m.eth_type_value()
                          : static_cast<std::uint16_t>(draw_value(rng, 16));
  key.ip_proto = keep() ? m.ip_proto_value()
                        : static_cast<std::uint8_t>(draw_value(rng, 8));
  const auto near_ip = [&](std::uint32_t value, std::uint8_t plen) {
    if (!keep()) return draw_value(rng, 32);
    const std::uint32_t pin = openflow::prefix_mask(plen);
    return (value & pin) | (draw_value(rng, 32) & ~pin);
  };
  key.src_ip = near_ip(m.ip_src_value(), m.ip_src_plen());
  key.dst_ip = near_ip(m.ip_dst_value(), m.ip_dst_plen());
  key.src_port = keep() ? m.l4_src_value()
                        : static_cast<std::uint16_t>(draw_value(rng, 16));
  key.dst_port = keep() ? m.l4_dst_value()
                        : static_cast<std::uint16_t>(draw_value(rng, 16));
  if (rng.chance(1, 4)) {
    const auto bit = [&rng](unsigned width) {
      return static_cast<std::uint32_t>(1u << rng.next_below(width));
    };
    switch (rng.next_below(7)) {
      case 0: key.in_port ^= static_cast<PortId>(bit(16)); break;
      case 1: key.ether_type ^= static_cast<std::uint16_t>(bit(16)); break;
      case 2: key.ip_proto ^= static_cast<std::uint8_t>(bit(8)); break;
      case 3: key.src_ip ^= bit(32); break;
      case 4: key.dst_ip ^= bit(32); break;
      case 5: key.src_port ^= static_cast<std::uint16_t>(bit(16)); break;
      default: key.dst_port ^= static_cast<std::uint16_t>(bit(16)); break;
    }
  }
  return key;
}

TEST(CompiledMatchTest, AgreesWithMatchesForEveryFieldSubset) {
  std::uint64_t passed = 0;
  std::uint64_t failed = 0;
  for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    for (std::uint32_t fields = 0; fields < kFieldSubsets; ++fields) {
      for (int trial = 0; trial < 16; ++trial) {
        const Match m = draw_match(rng, fields);
        const CompiledMatch compiled = m.compile();
        for (int k = 0; k < 8; ++k) {
          const pkt::FlowKey key = draw_key(rng, m);
          const bool expected = m.matches(key);
          ASSERT_EQ(compiled.matches(pack(key)), expected)
              << "seed " << seed << " match " << m.to_string();
          ++(expected ? passed : failed);
        }
      }
    }
  }
  // Both answers must have been exercised in bulk.
  EXPECT_GT(passed, 10'000u);
  EXPECT_GT(failed, 10'000u);
}

TEST(CompiledMatchTest, AgreesWithMayIntersectForEverySubsetPair) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed * 7919);
    for (std::uint32_t mask_fields = 0; mask_fields < kFieldSubsets;
         ++mask_fields) {
      for (std::uint32_t match_fields = 0; match_fields < kFieldSubsets;
           ++match_fields) {
        const MaskSpec mask = draw_mask(rng, mask_fields);
        const Match m = draw_match(rng, match_fields);
        const CompiledMatch compiled = compile_intersect(mask, m);
        for (int k = 0; k < 2; ++k) {
          // The revalidator tests masked keys, but the compiled test must
          // agree on raw keys too.
          const pkt::FlowKey raw = draw_key(rng, m);
          for (const pkt::FlowKey& key : {apply(mask, raw), raw}) {
            const bool expected = may_intersect(mask, key, m);
            ASSERT_EQ(compiled.matches(pack(key)), expected)
                << "seed " << seed << " mask " << mask.to_string()
                << " match " << m.to_string();
            ++(expected ? hits : misses);
          }
        }
      }
    }
  }
  EXPECT_GT(hits, 100'000u);
  EXPECT_GT(misses, 100'000u);
}

TEST(CompiledMatchTest, ZeroValuedFieldsAndInPortZeroStillConstrain) {
  // A pinned field whose value is 0 must reject a nonzero key value: the
  // compiled mask, not the value, decides which bits are read.
  for (const std::uint32_t field : kFields) {
    Match m;
    MaskSpec mask;
    mask.fields = field;
    switch (field) {
      case openflow::kMatchInPort: m.in_port(0); break;
      case openflow::kMatchEthType: m.eth_type(0); break;
      case openflow::kMatchIpProto: m.ip_proto(0); break;
      case openflow::kMatchIpSrc:
        m.ip_src(0, 32);
        mask.ip_src_plen = 32;
        break;
      case openflow::kMatchIpDst:
        m.ip_dst(0, 32);
        mask.ip_dst_plen = 32;
        break;
      case openflow::kMatchL4Src: m.l4_src(0); break;
      default: m.l4_dst(0); break;
    }
    const pkt::FlowKey zero;
    pkt::FlowKey one;
    one.in_port = field == openflow::kMatchInPort ? 1 : 0;
    one.ether_type = field == openflow::kMatchEthType ? 1 : 0;
    one.ip_proto = field == openflow::kMatchIpProto ? 1 : 0;
    one.src_ip = field == openflow::kMatchIpSrc ? 1 : 0;
    one.dst_ip = field == openflow::kMatchIpDst ? 1 : 0;
    one.src_port = field == openflow::kMatchL4Src ? 1 : 0;
    one.dst_port = field == openflow::kMatchL4Dst ? 1 : 0;
    EXPECT_TRUE(m.compile().matches(pack(zero))) << m.to_string();
    EXPECT_FALSE(m.compile().matches(pack(one))) << m.to_string();
    EXPECT_TRUE(compile_intersect(mask, m).matches(pack(zero)));
    EXPECT_FALSE(compile_intersect(mask, m).matches(pack(one)));
  }
  // A /0 prefix reads no bit; a default-built test passes every key.
  EXPECT_TRUE(Match{}.ip_dst(0xffffffffu, 0).compile().matches(pack({})));
  pkt::FlowKey any;
  any.in_port = 7;
  any.src_ip = 0xdeadbeefu;
  EXPECT_TRUE(CompiledMatch{}.matches(pack(any)));
}

}  // namespace
}  // namespace hw::classifier
