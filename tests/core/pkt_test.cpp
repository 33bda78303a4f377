#include <gtest/gtest.h>

#include <cstring>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "pkt/checksum.h"
#include "pkt/flow_key.h"
#include "pkt/headers.h"
#include "pkt/int_stamp.h"
#include "pkt/packet.h"
#include "pkt/traffic_profile.h"

namespace hw::pkt {
namespace {

// -------------------------------------------------------------- byteorder

TEST(ByteOrder, RoundTrips) {
  std::byte buf[4];
  store_be16(buf, 0xabcd);
  EXPECT_EQ(load_be16(buf), 0xabcd);
  EXPECT_EQ(std::to_integer<unsigned>(buf[0]), 0xabu);  // big-endian on wire
  store_be32(buf, 0x01020304);
  EXPECT_EQ(load_be32(buf), 0x01020304u);
  EXPECT_EQ(std::to_integer<unsigned>(buf[0]), 0x01u);
}

// ---------------------------------------------------------------- headers

TEST(Headers, MacFormatting) {
  const MacAddr mac = MacAddr::of(0xde, 0xad, 0xbe, 0xef, 0x00, 0x01);
  EXPECT_EQ(mac.to_string(), "de:ad:be:ef:00:01");
}

TEST(Headers, MacFromIndexIsLocallyAdministered) {
  const MacAddr mac = MacAddr::from_index(0x01020304);
  EXPECT_EQ(mac.bytes[0], 0x02);
  EXPECT_EQ(mac.bytes[2], 0x01);
  EXPECT_EQ(mac.bytes[5], 0x04);
  EXPECT_NE(MacAddr::from_index(1), MacAddr::from_index(2));
}

TEST(Headers, Ipv4Formatting) {
  EXPECT_EQ(ipv4_to_string(ipv4(10, 0, 0, 1)), "10.0.0.1");
  EXPECT_EQ(ipv4_to_string(ipv4(255, 255, 255, 255)), "255.255.255.255");
}

TEST(Headers, EthernetAccessors) {
  EthernetHeader eth{};
  eth.set_src(MacAddr::from_index(7));
  eth.set_dst(MacAddr::from_index(9));
  eth.set_ether_type(kEtherTypeIpv4);
  EXPECT_EQ(eth.src_mac(), MacAddr::from_index(7));
  EXPECT_EQ(eth.dst_mac(), MacAddr::from_index(9));
  EXPECT_EQ(eth.ether_type(), kEtherTypeIpv4);
}

// --------------------------------------------------------------- checksum

TEST(Checksum, KnownVector) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 → sum 0xddf2, cksum 0x220d.
  const std::uint8_t raw[] = {0x00, 0x01, 0xf2, 0x03,
                              0xf4, 0xf5, 0xf6, 0xf7};
  std::byte data[8];
  std::memcpy(data, raw, 8);
  EXPECT_EQ(checksum_partial(data), 0xddf2);
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthHandled) {
  const std::byte data[3] = {std::byte{0x01}, std::byte{0x02},
                             std::byte{0x03}};
  // 0x0102 + 0x0300 = 0x0402
  EXPECT_EQ(checksum_partial(data), 0x0402);
}

TEST(Checksum, VerifyAfterEmbed) {
  std::byte data[20] = {};
  data[0] = std::byte{0x45};
  data[9] = std::byte{17};
  const std::uint16_t sum = internet_checksum(data);
  store_be16(data + 10, sum);
  EXPECT_TRUE(checksum_ok(data));
  data[12] = std::byte{0xff};  // corrupt
  EXPECT_FALSE(checksum_ok(data));
}

TEST(Checksum, UpdateTtlKeepsHeaderVerifiable) {
  mbuf::Mbuf buf;
  FrameSpec spec;
  spec.frame_len = 64;
  ASSERT_TRUE(build_frame(buf, spec));
  auto* ip = reinterpret_cast<Ipv4Header*>(buf.data + sizeof(EthernetHeader));
  const auto header = [&] {
    return std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(ip), sizeof(Ipv4Header));
  };
  ASSERT_TRUE(checksum_ok(header()));
  // The RFC 1624 incremental update must agree with a full re-sum for
  // every rewrite, including the checksum-tricky 0x00/0xff endpoints.
  for (const std::uint8_t ttl : {9, 1, 0, 255, 64, 63}) {
    ip->update_ttl(ttl);
    EXPECT_EQ(ip->time_to_live(), ttl);
    EXPECT_TRUE(checksum_ok(header())) << "ttl=" << int(ttl);
    const std::uint16_t incremental = ip->hdr_checksum();
    ip->set_hdr_checksum(0);
    const std::uint16_t full = internet_checksum(header());
    ip->set_hdr_checksum(incremental);
    EXPECT_EQ(incremental, full) << "ttl=" << int(ttl);
  }
}

// ------------------------------------------------------------ build/parse

TEST(Packet, BuildUdpRoundTrip) {
  mbuf::Mbuf buf;
  FrameSpec spec;
  spec.frame_len = 64;
  spec.src_ip = ipv4(10, 0, 0, 1);
  spec.dst_ip = ipv4(10, 0, 0, 2);
  spec.src_port = 1111;
  spec.dst_port = 2222;
  ASSERT_TRUE(build_frame(buf, spec));
  EXPECT_EQ(buf.data_len, 64u);

  const auto view = parse(buf);
  ASSERT_TRUE(view.has_value());
  ASSERT_NE(view->eth, nullptr);
  ASSERT_NE(view->ip, nullptr);
  ASSERT_NE(view->udp, nullptr);
  EXPECT_EQ(view->tcp, nullptr);
  EXPECT_EQ(view->eth->ether_type(), kEtherTypeIpv4);
  EXPECT_EQ(view->ip->src_addr(), spec.src_ip);
  EXPECT_EQ(view->ip->dst_addr(), spec.dst_ip);
  EXPECT_EQ(view->ip->proto(), kIpProtoUdp);
  EXPECT_EQ(view->udp->sport(), 1111);
  EXPECT_EQ(view->udp->dport(), 2222);
  // IP header checksum must verify.
  EXPECT_TRUE(checksum_ok(
      {reinterpret_cast<const std::byte*>(view->ip), sizeof(Ipv4Header)}));
}

TEST(Packet, BuildTcpRoundTrip) {
  mbuf::Mbuf buf;
  FrameSpec spec;
  spec.ip_proto = kIpProtoTcp;
  spec.frame_len = 74;
  spec.dst_port = 80;
  ASSERT_TRUE(build_frame(buf, spec));
  const auto view = parse(buf);
  ASSERT_TRUE(view.has_value());
  ASSERT_NE(view->tcp, nullptr);
  EXPECT_EQ(view->udp, nullptr);
  EXPECT_EQ(view->tcp->dport(), 80);
}

TEST(Packet, BuildRejectsBadSizes) {
  mbuf::Mbuf buf;
  FrameSpec spec;
  spec.frame_len = 10;  // smaller than headers
  EXPECT_FALSE(build_frame(buf, spec));
  spec.frame_len = static_cast<std::uint32_t>(mbuf::kMbufDataRoom + 1);
  EXPECT_FALSE(build_frame(buf, spec));
}

TEST(Packet, ParseRejectsTruncated) {
  mbuf::Mbuf buf;
  FrameSpec spec;
  ASSERT_TRUE(build_frame(buf, spec));
  buf.data_len = 10;  // truncated below Ethernet header
  EXPECT_FALSE(parse(buf).has_value());
  buf.data_len = 20;  // Ethernet ok, IPv4 truncated
  EXPECT_FALSE(parse(buf).has_value());
}

TEST(Packet, ParseNonIpv4StopsAtEthernet) {
  mbuf::Mbuf buf;
  FrameSpec spec;
  ASSERT_TRUE(build_frame(buf, spec));
  auto* eth = reinterpret_cast<EthernetHeader*>(buf.data);
  eth->set_ether_type(kEtherTypeArp);
  const auto view = parse(buf);
  ASSERT_TRUE(view.has_value());
  EXPECT_NE(view->eth, nullptr);
  EXPECT_EQ(view->ip, nullptr);
}

// --------------------------------------------------------------- flow key

TEST(FlowKey, ExtractionMatchesSpec) {
  mbuf::Mbuf buf;
  FrameSpec spec;
  spec.src_ip = ipv4(1, 2, 3, 4);
  spec.dst_ip = ipv4(5, 6, 7, 8);
  spec.src_port = 10;
  spec.dst_port = 20;
  ASSERT_TRUE(build_frame(buf, spec));
  buf.in_port = 3;
  const FlowKey key = extract_flow_key(buf);
  EXPECT_EQ(key.in_port, 3);
  EXPECT_EQ(key.ether_type, kEtherTypeIpv4);
  EXPECT_EQ(key.src_ip, spec.src_ip);
  EXPECT_EQ(key.dst_ip, spec.dst_ip);
  EXPECT_EQ(key.ip_proto, kIpProtoUdp);
  EXPECT_EQ(key.src_port, 10);
  EXPECT_EQ(key.dst_port, 20);
}

/// The key parse()'s view implies: what extract_flow_key() must return.
FlowKey key_from_parse(const mbuf::Mbuf& buf) {
  FlowKey key;
  key.in_port = buf.in_port;
  const auto view = parse(buf);
  if (!view.has_value()) return key;
  key.ether_type = view->eth->ether_type();
  if (view->ip == nullptr) return key;
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
  return key;
}

TEST(FlowKey, ExtractionMatchesParseOnMalformedFrames) {
  mbuf::Mbuf buf;
  std::uint64_t checked = 0;
  const auto check = [&](const char* what, std::uint32_t detail) {
    const FlowKey expected = key_from_parse(buf);
    EXPECT_EQ(extract_flow_key(buf), expected)
        << what << " " << detail << " (data_len " << buf.data_len << ")";
    // The in-place form over a key whose every field holds 0xA5 bytes,
    // as a reused batch slot holds some earlier frame's key: no field
    // may survive.
    FlowKey reused{0xa5a5, 0xa5a5, 0xa5a5a5a5u, 0xa5a5a5a5u,
                   0xa5,   0xa5a5, 0xa5a5};
    extract_flow_key(buf, reused);
    EXPECT_EQ(reused, expected) << "in place: " << what << " " << detail
                                << " (data_len " << buf.data_len << ")";
    ++checked;
  };
  const auto build = [&](std::uint8_t proto, std::uint32_t frame_len) {
    FrameSpec spec;
    spec.ip_proto = proto;
    spec.frame_len = frame_len;
    spec.src_ip = ipv4(10, 1, 2, 3);
    spec.dst_ip = ipv4(192, 168, 4, 5);
    spec.src_port = 4321;
    spec.dst_port = 80;
    ASSERT_TRUE(build_frame(buf, spec));
    buf.in_port = 7;
  };
  auto* ip = reinterpret_cast<Ipv4Header*>(buf.data + sizeof(EthernetHeader));

  // Every truncation of a 64 B UDP and TCP frame.
  for (const std::uint8_t proto : {kIpProtoUdp, kIpProtoTcp}) {
    build(proto, 64);
    for (std::uint32_t len = 0; len <= 64; ++len) {
      buf.data_len = len;
      check("truncated, proto", proto);
    }
  }
  // Every IHL, options included, at every length around its L4 header.
  for (const std::uint8_t proto : {kIpProtoUdp, kIpProtoTcp}) {
    for (std::uint32_t ihl = 0; ihl <= 15; ++ihl) {
      build(proto, 128);
      ip->version_ihl = static_cast<std::byte>(0x40 | ihl);
      const std::uint32_t l4_off = 14 + ihl * 4;
      for (std::uint32_t len = 30; len <= l4_off + 24 && len <= 128; ++len) {
        buf.data_len = len;
        check("ihl", ihl);
      }
    }
  }
  // Every IP version but 4, and non-IPv4 ethertypes.
  for (std::uint32_t version = 0; version <= 15; ++version) {
    build(kIpProtoUdp, 64);
    ip->version_ihl = static_cast<std::byte>((version << 4) | 5);
    check("version", version);
  }
  for (const std::uint16_t ether_type : {kEtherTypeArp, std::uint16_t{0x86dd},
                                         std::uint16_t{0x0000}}) {
    build(kIpProtoUdp, 64);
    reinterpret_cast<EthernetHeader*>(buf.data)->set_ether_type(ether_type);
    check("ether_type", ether_type);
  }
  // Every IP protocol, whole and cut inside the L4 header.
  for (std::uint32_t proto = 0; proto <= 255; ++proto) {
    build(kIpProtoUdp, 64);
    ip->set_proto(static_cast<std::uint8_t>(proto));
    check("ip_proto", proto);
    buf.data_len = 14 + 20 + 10;
    check("ip_proto, cut at 44 B:", proto);
  }
  // Seeded random bytes, half of them under an IPv4 ethertype and a
  // version-4 first nibble so the checks past the Ethernet header run.
  Rng rng(0xf10c);
  for (std::uint32_t frame = 0; frame < 20'000; ++frame) {
    const auto len = static_cast<std::uint32_t>(rng.next_below(97));
    for (std::uint32_t i = 0; i < len; ++i) {
      buf.data[i] = static_cast<std::byte>(rng.next());
    }
    if (frame % 2 == 0 && len >= 15) {
      reinterpret_cast<EthernetHeader*>(buf.data)->set_ether_type(
          kEtherTypeIpv4);
      buf.data[14] = static_cast<std::byte>(0x40 | (rng.next() & 0x0f));
      if (len >= 24 && rng.chance(2, 3)) {
        ip->set_proto(rng.chance(1, 2) ? kIpProtoUdp : kIpProtoTcp);
      }
    }
    buf.data_len = len;
    buf.in_port = static_cast<PortId>(frame);
    check("random frame", frame);
  }
  EXPECT_GT(checked, 20'000u);
}

TEST(FlowKey, HashNeverZeroAndStable) {
  FlowKey key;
  key.src_ip = ipv4(10, 0, 0, 1);
  const std::uint32_t h1 = flow_key_hash(key);
  const std::uint32_t h2 = flow_key_hash(key);
  EXPECT_NE(h1, 0u);
  EXPECT_EQ(h1, h2);
}

TEST(FlowKey, HashSpreadsAcrossFlows) {
  std::unordered_set<std::uint32_t> hashes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    FlowKey key;
    key.in_port = static_cast<PortId>(i % 7);
    key.src_ip = ipv4(10, 0, 0, 1) + i;
    key.dst_port = static_cast<std::uint16_t>(i);
    hashes.insert(flow_key_hash(key));
  }
  EXPECT_GT(hashes.size(), 990u);  // near-perfect spread
}

TEST(FlowKey, InPortChangesHash) {
  FlowKey a;
  a.src_ip = ipv4(10, 0, 0, 1);
  FlowKey b = a;
  b.in_port = 5;
  EXPECT_NE(flow_key_hash(a), flow_key_hash(b));
}

TEST(FlowKey, CachedHashReused) {
  mbuf::Mbuf buf;
  ASSERT_TRUE(build_frame(buf, FrameSpec{}));
  buf.in_port = 1;
  const std::uint32_t first = flow_hash_of(buf);
  EXPECT_EQ(buf.flow_hash, first);
  // Second call must not recompute differently.
  EXPECT_EQ(flow_hash_of(buf), first);
}

// ---------------------------------------------------------------- profile

TEST(TrafficProfile, GeneratesRequestedFlows) {
  TrafficProfile profile;
  profile.flow_count = 12;
  const auto flows = profile.make_flows();
  ASSERT_EQ(flows.size(), 12u);
  std::unordered_set<std::uint32_t> srcs;
  for (const auto& flow : flows) srcs.insert(flow.src_ip);
  EXPECT_EQ(srcs.size(), 12u);  // distinct tuples
}

TEST(TrafficProfile, WebPercentProducesTcp80) {
  TrafficProfile profile;
  profile.flow_count = 200;
  profile.web_percent = 50;
  int web = 0;
  for (const auto& flow : profile.make_flows()) {
    if (flow.ip_proto == kIpProtoTcp) {
      EXPECT_EQ(flow.dst_port, 80);
      ++web;
    }
  }
  EXPECT_GT(web, 60);
  EXPECT_LT(web, 140);
}

// -------------------------------------------------------------- INT trailer

TEST(IntStamp, PlainFrameHasNoTrailer) {
  mbuf::Mbuf buf;
  ASSERT_TRUE(build_frame(buf, FrameSpec{}));
  EXPECT_EQ(int_hop_count(buf), 0u);
  EXPECT_EQ(int_payload_len(buf), buf.data_len);
  IntHopRecord rec;
  EXPECT_FALSE(int_read_hop(buf, 0, rec));
  EXPECT_FALSE(int_complete_hop(buf, 100));  // nothing to complete
}

TEST(IntStamp, PushCompleteReadRoundTrip) {
  mbuf::Mbuf buf;
  ASSERT_TRUE(build_frame(buf, FrameSpec{}));
  const std::uint32_t payload = buf.data_len;

  ASSERT_TRUE(int_push_hop(buf, /*hop_id=*/7, /*ingress_ns=*/1000,
                           /*queue_depth=*/3));
  EXPECT_EQ(int_hop_count(buf), 1u);
  EXPECT_EQ(buf.data_len, payload + int_trailer_len(1));
  EXPECT_EQ(int_payload_len(buf), payload);

  ASSERT_TRUE(int_complete_hop(buf, 1400));
  // The newest record is complete; completing again must refuse.
  EXPECT_FALSE(int_complete_hop(buf, 9999));

  IntHopRecord rec;
  ASSERT_TRUE(int_read_hop(buf, 0, rec));
  EXPECT_EQ(rec.hop_id, 7u);
  EXPECT_EQ(rec.queue_depth, 3u);
  EXPECT_EQ(rec.ingress_ns, 1000u);
  EXPECT_EQ(rec.egress_ns, 1400u);
  EXPECT_FALSE(int_read_hop(buf, 1, rec));  // out of range
}

TEST(IntStamp, RecordsStackOldestFirstAndPayloadSurvives) {
  mbuf::Mbuf buf;
  ASSERT_TRUE(build_frame(buf, FrameSpec{}));
  const std::uint32_t payload = buf.data_len;
  std::vector<std::byte> image(buf.data, buf.data + buf.data_len);

  for (std::uint32_t hop = 0; hop < 5; ++hop) {
    ASSERT_TRUE(int_push_hop(buf, hop + 10, 1000 * (hop + 1), hop));
    ASSERT_TRUE(int_complete_hop(buf, 1000 * (hop + 1) + 250));
  }
  EXPECT_EQ(int_hop_count(buf), 5u);
  EXPECT_EQ(buf.data_len, payload + int_trailer_len(5));
  EXPECT_EQ(int_payload_len(buf), payload);
  // Hop 0 is the oldest stamp; completion only ever touched the newest.
  for (std::uint16_t hop = 0; hop < 5; ++hop) {
    IntHopRecord rec;
    ASSERT_TRUE(int_read_hop(buf, hop, rec));
    EXPECT_EQ(rec.hop_id, hop + 10u);
    EXPECT_EQ(rec.ingress_ns, 1000u * (hop + 1));
    EXPECT_EQ(rec.egress_ns, 1000u * (hop + 1) + 250);
  }
  // The payload bytes under the trailer are untouched — stamped and
  // unstamped frames parse identically (the transparency property).
  EXPECT_EQ(std::memcmp(buf.data, image.data(), payload), 0);
  const FlowKey stamped = extract_flow_key(buf);
  mbuf::Mbuf plain;
  ASSERT_TRUE(build_frame(plain, FrameSpec{}));
  const FlowKey unstamped = extract_flow_key(plain);
  EXPECT_EQ(flow_key_hash(stamped), flow_key_hash(unstamped));
}

TEST(IntStamp, PushFailsWhenDataRoomExhausted) {
  mbuf::Mbuf buf;
  buf.data_len = mbuf::kMbufDataRoom - int_trailer_len(2);
  ASSERT_TRUE(int_push_hop(buf, 1, 100, 0));  // creates trailer: +32 B
  ASSERT_TRUE(int_push_hop(buf, 2, 200, 0));  // +24 B, exactly full
  EXPECT_EQ(buf.data_len, mbuf::kMbufDataRoom);
  EXPECT_FALSE(int_push_hop(buf, 3, 300, 0));  // no room: frame unchanged
  EXPECT_EQ(int_hop_count(buf), 2u);
  EXPECT_EQ(buf.data_len, mbuf::kMbufDataRoom);
  IntHopRecord rec;
  ASSERT_TRUE(int_read_hop(buf, 1, rec));
  EXPECT_EQ(rec.hop_id, 2u);
}

TEST(TrafficProfile, DeterministicForSeed) {
  TrafficProfile profile;
  profile.web_percent = 30;
  const auto a = profile.make_flows();
  const auto b = profile.make_flows();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ip_proto, b[i].ip_proto);
    EXPECT_EQ(a[i].dst_port, b[i].dst_port);
  }
}

}  // namespace
}  // namespace hw::pkt
