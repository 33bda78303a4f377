#include <gtest/gtest.h>

#include "openflow/codec.h"
#include "pkt/headers.h"

namespace hw::openflow {
namespace {

FlowMod sample_flow_mod() {
  FlowMod mod;
  mod.command = FlowModCommand::kAdd;
  mod.priority = 123;
  mod.cookie = 0xdeadbeefcafef00dULL;
  mod.match.in_port(7)
      .eth_type(pkt::kEtherTypeIpv4)
      .ip_proto(pkt::kIpProtoTcp)
      .ip_src(pkt::ipv4(10, 1, 2, 3), 24)
      .ip_dst(pkt::ipv4(192, 168, 1, 1), 32)
      .l4_src(555)
      .l4_dst(80);
  mod.actions = {Action::set_ttl(12), Action::output(9)};
  return mod;
}

TEST(Codec, HeaderRoundTrip) {
  const auto bytes = encode_flow_mod(sample_flow_mod(), 0x11223344);
  const auto header = decode_header(bytes);
  ASSERT_TRUE(header.is_ok());
  EXPECT_EQ(header.value().version, kWireVersion);
  EXPECT_EQ(header.value().type, MsgType::kFlowMod);
  EXPECT_EQ(header.value().length, bytes.size());
  EXPECT_EQ(header.value().xid, 0x11223344u);
}

TEST(Codec, HeaderRejectsShortInput) {
  const std::vector<std::byte> tiny(4);
  EXPECT_FALSE(decode_header(tiny).is_ok());
}

TEST(Codec, HeaderRejectsBadVersion) {
  auto bytes = encode_flow_mod(sample_flow_mod());
  bytes[0] = std::byte{0x01};
  EXPECT_FALSE(decode_header(bytes).is_ok());
}

TEST(Codec, FlowModRoundTrip) {
  const FlowMod original = sample_flow_mod();
  const auto bytes = encode_flow_mod(original, 5);
  const auto decoded = decode_flow_mod(bytes);
  ASSERT_TRUE(decoded.is_ok());
  const FlowMod& mod = decoded.value();
  EXPECT_EQ(mod.command, original.command);
  EXPECT_EQ(mod.priority, original.priority);
  EXPECT_EQ(mod.cookie, original.cookie);
  EXPECT_EQ(mod.match, original.match);
  EXPECT_EQ(mod.actions, original.actions);
}

TEST(Codec, FlowModAllCommands) {
  for (const auto command :
       {FlowModCommand::kAdd, FlowModCommand::kModify,
        FlowModCommand::kModifyStrict, FlowModCommand::kDelete,
        FlowModCommand::kDeleteStrict}) {
    FlowMod mod = sample_flow_mod();
    mod.command = command;
    const auto decoded = decode_flow_mod(encode_flow_mod(mod));
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value().command, command);
  }
}

TEST(Codec, FlowModEmptyMatchAndActions) {
  FlowMod mod;
  mod.command = FlowModCommand::kDelete;  // wildcard delete-all
  const auto decoded = decode_flow_mod(encode_flow_mod(mod));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().match.fields(), 0u);
  EXPECT_TRUE(decoded.value().actions.empty());
}

TEST(Codec, FlowModRejectsTruncation) {
  const auto bytes = encode_flow_mod(sample_flow_mod());
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() - 5,
                                kMsgHeaderLen + 1, std::size_t{9}}) {
    const std::span<const std::byte> truncated(bytes.data(), cut);
    EXPECT_FALSE(decode_flow_mod(truncated).is_ok()) << "cut=" << cut;
  }
}

TEST(Codec, FlowModRejectsWrongType) {
  const PacketOut po{.out_port = 1, .frame = std::vector<std::byte>(64)};
  EXPECT_FALSE(decode_flow_mod(encode_packet_out(po)).is_ok());
}

TEST(Codec, RejectsIpv4PrefixLongerThan32) {
  // The match's prefix lengths follow its fields (4 bytes), in_port,
  // eth_type (2 each) and ip_proto (1); a FlowMod's match starts after
  // command, pad, priority and cookie (12 bytes), a stats reply's after
  // its entry count (2 bytes).
  constexpr std::size_t kModSrcPlen = kMsgHeaderLen + 12 + 9;
  const auto good = encode_flow_mod(sample_flow_mod());
  ASSERT_EQ(std::to_integer<int>(good[kModSrcPlen]), 24);
  ASSERT_EQ(std::to_integer<int>(good[kModSrcPlen + 1]), 32);
  for (const std::size_t at : {kModSrcPlen, kModSrcPlen + 1}) {
    for (const int plen : {33, 40, 255}) {
      auto bytes = good;
      bytes[at] = static_cast<std::byte>(plen);
      EXPECT_FALSE(decode_flow_mod(bytes).is_ok())
          << "offset " << at << " plen " << plen;
    }
  }

  std::vector<FlowStatsEntry> entries(1);
  entries[0].match.ip_dst(pkt::ipv4(10, 0, 0, 0), 8);
  entries[0].actions = {Action::output(2)};
  auto stats = encode_flow_stats_reply(entries);
  constexpr std::size_t kStatsDstPlen = kMsgHeaderLen + 2 + 10;
  ASSERT_EQ(std::to_integer<int>(stats[kStatsDstPlen]), 8);
  ASSERT_TRUE(decode_flow_stats_reply(stats).is_ok());
  stats[kStatsDstPlen] = std::byte{33};
  EXPECT_FALSE(decode_flow_stats_reply(stats).is_ok());
}

TEST(Codec, PacketOutRoundTrip) {
  PacketOut po;
  po.out_port = 13;
  for (int i = 0; i < 100; ++i) {
    po.frame.push_back(static_cast<std::byte>(i));
  }
  const auto decoded = decode_packet_out(encode_packet_out(po, 2));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().out_port, 13);
  EXPECT_EQ(decoded.value().frame, po.frame);
}

TEST(Codec, FlowStatsRoundTrip) {
  std::vector<FlowStatsEntry> entries(2);
  entries[0].match.in_port(1);
  entries[0].priority = 10;
  entries[0].cookie = 77;
  entries[0].packet_count = 1'000'000'000'123ULL;
  entries[0].byte_count = 64 * entries[0].packet_count;
  entries[0].duration_ns = 5'000'000'000ULL;
  entries[0].actions = {Action::output(2)};
  entries[1].match.in_port(2).l4_dst(80);
  entries[1].priority = 200;
  entries[1].actions = {Action::drop()};

  const auto bytes = encode_flow_stats_reply(entries, 9);
  const auto decoded = decode_flow_stats_reply(bytes);
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_EQ(decoded.value()[0].packet_count, entries[0].packet_count);
  EXPECT_EQ(decoded.value()[0].byte_count, entries[0].byte_count);
  EXPECT_EQ(decoded.value()[0].duration_ns, entries[0].duration_ns);
  EXPECT_EQ(decoded.value()[0].match, entries[0].match);
  EXPECT_EQ(decoded.value()[1].actions, entries[1].actions);
}

TEST(Codec, PortStatsRoundTrip) {
  std::vector<PortStats> entries(1);
  entries[0].port = 4;
  entries[0].rx_packets = 111;
  entries[0].tx_packets = 222;
  entries[0].rx_bytes = 333;
  entries[0].tx_bytes = 444;
  entries[0].rx_dropped = 5;
  entries[0].tx_dropped = 6;
  const auto decoded =
      decode_port_stats_reply(encode_port_stats_reply(entries, 3));
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0].rx_packets, 111u);
  EXPECT_EQ(decoded.value()[0].tx_dropped, 6u);
}

TEST(Codec, PortStatsRequestRoundTrip) {
  const auto bytes = encode_port_stats_request(42, 8);
  const auto decoded = decode_port_stats_request(bytes);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), 42);
}

TEST(Codec, LengthFieldMismatchRejected) {
  auto bytes = encode_flow_mod(sample_flow_mod());
  bytes.push_back(std::byte{0});  // trailing garbage → length mismatch
  EXPECT_FALSE(decode_flow_mod(bytes).is_ok());
}

// -------------------------------------------------------------- messages

TEST(Messages, IsSingleOutput) {
  PortId out = 0;
  EXPECT_TRUE(is_single_output({Action::output(5)}, &out));
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(is_single_output({}));
  EXPECT_FALSE(is_single_output({Action::drop()}));
  EXPECT_FALSE(is_single_output({Action::output(1), Action::output(2)}));
  EXPECT_FALSE(is_single_output({Action::output(kPortController)}));
  EXPECT_FALSE(is_single_output({Action::set_ttl(3)}));
}

TEST(Messages, MakeP2pFlowMod) {
  const FlowMod mod = make_p2p_flowmod(3, 9, 50, 0xbeef);
  EXPECT_EQ(mod.command, FlowModCommand::kAdd);
  EXPECT_TRUE(mod.match.is_in_port_only());
  EXPECT_EQ(mod.match.in_port_value(), 3);
  PortId out = 0;
  EXPECT_TRUE(is_single_output(mod.actions, &out));
  EXPECT_EQ(out, 9);
  EXPECT_EQ(mod.priority, 50);
  EXPECT_EQ(mod.cookie, 0xbeefu);
}

TEST(Messages, FlowModToString) {
  const FlowMod mod = make_p2p_flowmod(1, 2, 100, 7);
  const std::string text = mod.to_string();
  EXPECT_NE(text.find("add"), std::string::npos);
  EXPECT_NE(text.find("in_port=1"), std::string::npos);
  EXPECT_NE(text.find("output:2"), std::string::npos);
}

TEST(Messages, PortStatsAccumulate) {
  PortStats a;
  a.rx_packets = 10;
  a.tx_bytes = 100;
  PortStats b;
  b.rx_packets = 5;
  b.tx_bytes = 50;
  b.rx_dropped = 1;
  a += b;
  EXPECT_EQ(a.rx_packets, 15u);
  EXPECT_EQ(a.tx_bytes, 150u);
  EXPECT_EQ(a.rx_dropped, 1u);
}

}  // namespace
}  // namespace hw::openflow
