#include <gtest/gtest.h>

#include "common/rng.h"
#include "openflow/match.h"
#include "pkt/headers.h"

namespace hw::openflow {
namespace {

pkt::FlowKey key_of(PortId in_port, std::uint32_t src, std::uint32_t dst,
                    std::uint8_t proto = pkt::kIpProtoUdp,
                    std::uint16_t sport = 1000, std::uint16_t dport = 2000) {
  pkt::FlowKey key;
  key.in_port = in_port;
  key.ether_type = pkt::kEtherTypeIpv4;
  key.src_ip = src;
  key.dst_ip = dst;
  key.ip_proto = proto;
  key.src_port = sport;
  key.dst_port = dport;
  return key;
}

TEST(Match, EmptyMatchesEverything) {
  const Match match;
  EXPECT_TRUE(match.matches(key_of(1, 2, 3)));
  EXPECT_TRUE(match.matches(pkt::FlowKey{}));
  EXPECT_EQ(match.to_string(), "any");
}

TEST(Match, InPortOnly) {
  Match match;
  match.in_port(4);
  EXPECT_TRUE(match.is_in_port_only());
  EXPECT_TRUE(match.matches(key_of(4, 1, 1)));
  EXPECT_FALSE(match.matches(key_of(5, 1, 1)));
  match.eth_type(pkt::kEtherTypeIpv4);
  EXPECT_FALSE(match.is_in_port_only());
}

TEST(Match, EachFieldFilters) {
  const auto base = key_of(1, pkt::ipv4(10, 0, 0, 1), pkt::ipv4(10, 0, 0, 2),
                           pkt::kIpProtoTcp, 10, 80);
  {
    Match m;
    m.eth_type(0x0806);
    EXPECT_FALSE(m.matches(base));
  }
  {
    Match m;
    m.ip_proto(pkt::kIpProtoTcp);
    EXPECT_TRUE(m.matches(base));
    m.ip_proto(pkt::kIpProtoUdp);
    EXPECT_FALSE(m.matches(base));
  }
  {
    Match m;
    m.ip_src(pkt::ipv4(10, 0, 0, 1));
    EXPECT_TRUE(m.matches(base));
    m.ip_src(pkt::ipv4(10, 0, 0, 9));
    EXPECT_FALSE(m.matches(base));
  }
  {
    Match m;
    m.l4_dst(80);
    EXPECT_TRUE(m.matches(base));
    m.l4_dst(443);
    EXPECT_FALSE(m.matches(base));
  }
  {
    Match m;
    m.l4_src(10);
    EXPECT_TRUE(m.matches(base));
    m.l4_src(11);
    EXPECT_FALSE(m.matches(base));
  }
}

TEST(Match, PrefixMasks) {
  Match m;
  m.ip_dst(pkt::ipv4(192, 168, 0, 0), 16);
  EXPECT_TRUE(m.matches(key_of(1, 0, pkt::ipv4(192, 168, 55, 1))));
  EXPECT_FALSE(m.matches(key_of(1, 0, pkt::ipv4(192, 169, 0, 1))));
  Match zero;
  zero.ip_dst(pkt::ipv4(1, 1, 1, 1), 0);  // /0 matches all
  EXPECT_TRUE(zero.matches(key_of(1, 0, pkt::ipv4(8, 8, 8, 8))));
}

TEST(Match, PrefixMaskHelper) {
  EXPECT_EQ(prefix_mask(0), 0u);
  EXPECT_EQ(prefix_mask(8), 0xff000000u);
  EXPECT_EQ(prefix_mask(24), 0xffffff00u);
  EXPECT_EQ(prefix_mask(32), 0xffffffffu);
}

TEST(Match, ContainsBasics) {
  Match any;
  Match narrow;
  narrow.in_port(2).l4_dst(80);
  EXPECT_TRUE(any.contains(narrow));
  EXPECT_FALSE(narrow.contains(any));
  EXPECT_TRUE(narrow.contains(narrow));
}

TEST(Match, ContainsPrefix) {
  Match wide;
  wide.ip_src(pkt::ipv4(10, 0, 0, 0), 8);
  Match narrow;
  narrow.ip_src(pkt::ipv4(10, 2, 0, 0), 16);
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  Match other;
  other.ip_src(pkt::ipv4(11, 2, 0, 0), 16);
  EXPECT_FALSE(wide.contains(other));
}

TEST(Match, EqualityIsStructural) {
  Match a;
  a.in_port(1).l4_dst(80);
  Match b;
  b.in_port(1).l4_dst(80);
  EXPECT_EQ(a, b);
  b.l4_dst(81);
  EXPECT_NE(a, b);
}

TEST(Match, ToStringListsFields) {
  Match m;
  m.in_port(3).eth_type(0x0800).ip_proto(6).l4_dst(80);
  const std::string text = m.to_string();
  EXPECT_NE(text.find("in_port=3"), std::string::npos);
  EXPECT_NE(text.find("eth_type=0x0800"), std::string::npos);
  EXPECT_NE(text.find("ip_proto=6"), std::string::npos);
  EXPECT_NE(text.find("l4_dst=80"), std::string::npos);
}

// ---------------------------------------------------- property tests

/// Random match generator for property checks.
Match random_match(Rng& rng) {
  Match m;
  if (rng.chance(1, 2)) m.in_port(static_cast<PortId>(rng.next_below(4)));
  if (rng.chance(1, 3)) m.eth_type(pkt::kEtherTypeIpv4);
  if (rng.chance(1, 3)) {
    m.ip_proto(rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp);
  }
  if (rng.chance(1, 3)) {
    m.ip_src(pkt::ipv4(10, 0, 0, static_cast<std::uint8_t>(rng.next_below(4))),
             static_cast<std::uint8_t>(rng.next_in(8, 32)));
  }
  if (rng.chance(1, 3)) {
    m.l4_dst(static_cast<std::uint16_t>(rng.next_below(3) + 80));
  }
  return m;
}

pkt::FlowKey random_key(Rng& rng) {
  return key_of(static_cast<PortId>(rng.next_below(4)),
                pkt::ipv4(10, 0, 0, static_cast<std::uint8_t>(
                                        rng.next_below(4))),
                pkt::ipv4(10, 1, 0, static_cast<std::uint8_t>(
                                        rng.next_below(4))),
                rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp,
                static_cast<std::uint16_t>(rng.next_below(3) + 1000),
                static_cast<std::uint16_t>(rng.next_below(3) + 80));
}

class MatchPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchPropertyTest, ContainsImpliesMatchSubset) {
  // If a.contains(b), every key matching b must match a.
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const Match a = random_match(rng);
    const Match b = random_match(rng);
    if (!a.contains(b)) continue;
    for (int k = 0; k < 20; ++k) {
      const pkt::FlowKey key = random_key(rng);
      if (b.matches(key)) {
        ASSERT_TRUE(a.matches(key))
            << "a=[" << a.to_string() << "] b=[" << b.to_string() << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchPropertyTest,
                         ::testing::Values(17, 23, 42, 77));

}  // namespace
}  // namespace hw::openflow
