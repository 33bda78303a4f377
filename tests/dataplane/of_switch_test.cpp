#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>

#include "exec/runtime.h"
#include "openflow/codec.h"
#include "pkt/checksum.h"
#include "pkt/packet.h"
#include "vswitch/of_switch.h"

namespace hw::vswitch {
namespace {

using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;

class OfSwitchTest : public ::testing::Test {
 protected:
  OfSwitchTest()
      : pool_("p", 1024),
        runtime_({.epoch_ns = 1000, .cost = {}}),
        of_(shm_, pool_, runtime_, runtime_.cost(),
            {.ring_capacity = 64,
             .engine_count = 1,
             .bypass_enabled = false}) {}

  PortId add_port(const char* name) {
    auto port = of_.add_dpdkr_port(name);
    EXPECT_TRUE(port.is_ok());
    return port.value();
  }

  /// Pushes a frame into `port`'s VM→switch ring, as the guest would.
  void inject(PortId port, mbuf::Mbuf* frame) {
    auto* dpdkr = static_cast<DpdkrSwitchPort*>(of_.port(port));
    ASSERT_EQ(dpdkr->channel().b2a().enqueue(frame), true);
  }

  /// Pops a frame from `port`'s switch→VM ring, as the guest would.
  mbuf::Mbuf* extract(PortId port) {
    auto* dpdkr = static_cast<DpdkrSwitchPort*>(of_.port(port));
    mbuf::Mbuf* out = nullptr;
    return dpdkr->channel().a2b().dequeue(out) ? out : nullptr;
  }

  mbuf::Mbuf* make_frame(std::uint16_t dst_port = 2000,
                         std::uint32_t frame_len = 64) {
    mbuf::Mbuf* buf = pool_.alloc();
    pkt::FrameSpec spec;
    spec.dst_port = dst_port;
    spec.frame_len = frame_len;
    EXPECT_TRUE(pkt::build_frame(*buf, spec));
    return buf;
  }

  void poll_engine() {
    exec::CycleMeter meter;
    (void)of_.engines()[0]->poll(meter);
  }

  shm::ShmManager shm_;
  mbuf::Mempool pool_;
  exec::SimRuntime runtime_;
  OfSwitch of_;
};

TEST_F(OfSwitchTest, PortCreationAllocatesSharedMemory) {
  const PortId a = add_port("vm0.l");
  EXPECT_EQ(a, 1);
  EXPECT_NE(shm_.find("dpdkr1"), nullptr);
  EXPECT_NE(shm_.find("ctrl.1"), nullptr);
  EXPECT_NE(shm_.find(pmd::SharedStats::region_name()), nullptr);
  EXPECT_TRUE(of_.is_dpdkr(a));
  EXPECT_FALSE(of_.is_dpdkr(99));
  EXPECT_EQ(of_.port(a)->name(), "vm0.l");
}

TEST_F(OfSwitchTest, ForwardsAccordingToRule) {
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  ASSERT_TRUE(of_.handle_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 1))
                  .is_ok());
  mbuf::Mbuf* frame = make_frame();
  inject(a, frame);
  poll_engine();
  EXPECT_EQ(extract(b), frame);
  EXPECT_EQ(of_.engines()[0]->counters().rx_packets, 1u);
  EXPECT_EQ(of_.engines()[0]->counters().tx_packets, 1u);
  pool_.free(frame);
}

TEST_F(OfSwitchTest, ForwardedFramesCarryTheirClassifyHash) {
  // process_burst() leaves the hash it classified with in
  // Mbuf::flow_hash: the value flow_hash_of() would compute for the
  // frame's key on its in_port, so a receiver need not parse it again.
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  ASSERT_TRUE(of_.handle_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 1))
                  .is_ok());
  std::array<mbuf::Mbuf*, 8> frames{};
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i] = make_frame(static_cast<std::uint16_t>(2000 + i));
    frames[i]->flow_hash = 0x1234;  // stale: computed on another port
    inject(a, frames[i]);
  }
  poll_engine();
  for (mbuf::Mbuf* frame : frames) {
    mbuf::Mbuf* out = extract(b);
    ASSERT_EQ(out, frame);
    EXPECT_EQ(out->in_port, a);
    EXPECT_EQ(out->flow_hash,
              pkt::flow_key_hash(pkt::extract_flow_key(*out)));
    pool_.free(out);
  }
}

TEST_F(OfSwitchTest, TableMissDropsAndCounts) {
  const PortId a = add_port("a");
  inject(a, make_frame());
  poll_engine();
  EXPECT_EQ(of_.engines()[0]->counters().misses, 1u);
  EXPECT_EQ(pool_.in_use(), 0u);  // frame freed, not leaked
}

TEST_F(OfSwitchTest, DropActionFrees) {
  const PortId a = add_port("a");
  FlowMod mod;
  mod.priority = 5;
  mod.match.in_port(a);
  mod.actions = {Action::drop()};
  ASSERT_TRUE(of_.handle_flow_mod(mod).is_ok());
  inject(a, make_frame());
  poll_engine();
  EXPECT_EQ(of_.engines()[0]->counters().action_drops, 1u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(OfSwitchTest, SetTtlThenOutput) {
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  FlowMod mod;
  mod.priority = 5;
  mod.match.in_port(a);
  mod.actions = {Action::set_ttl(9), Action::output(b)};
  ASSERT_TRUE(of_.handle_flow_mod(mod).is_ok());
  mbuf::Mbuf* frame = make_frame();
  inject(a, frame);
  poll_engine();
  mbuf::Mbuf* out = extract(b);
  ASSERT_EQ(out, frame);
  const auto view = pkt::parse(*out);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ip->time_to_live(), 9);
  // The TTL rewrite must keep the header checksum valid (RFC 1624
  // incremental update); a receiver would discard the frame otherwise.
  EXPECT_TRUE(pkt::checksum_ok(
      {reinterpret_cast<const std::byte*>(view->ip),
       sizeof(pkt::Ipv4Header)}));
  pool_.free(out);
}

TEST_F(OfSwitchTest, ControllerPuntCounts) {
  const PortId a = add_port("a");
  FlowMod mod;
  mod.priority = 5;
  mod.match.in_port(a);
  mod.actions = {Action::output(kPortController)};
  ASSERT_TRUE(of_.handle_flow_mod(mod).is_ok());
  inject(a, make_frame());
  poll_engine();
  EXPECT_EQ(of_.engines()[0]->counters().controller_punts, 1u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(OfSwitchTest, FlowModRejectsUnknownOutputPort) {
  const PortId a = add_port("a");
  FlowMod mod;
  mod.match.in_port(a);
  mod.actions = {Action::output(77)};
  EXPECT_EQ(of_.handle_flow_mod(mod).code(), StatusCode::kInvalidArgument);
}

TEST_F(OfSwitchTest, DisabledPortNeitherPolledNorTargeted) {
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  ASSERT_TRUE(of_.handle_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 1))
                  .is_ok());
  ASSERT_TRUE(of_.set_port_enabled(b, false).is_ok());
  mbuf::Mbuf* frame = make_frame();
  inject(a, frame);
  poll_engine();
  EXPECT_EQ(extract(b), nullptr);
  EXPECT_EQ(pool_.in_use(), 0u);  // dropped at disabled destination
  ASSERT_TRUE(of_.set_port_enabled(b, true).is_ok());
  EXPECT_EQ(of_.set_port_enabled(99, true).code(), StatusCode::kNotFound);
}

TEST_F(OfSwitchTest, TxRingFullDropsRemainder) {
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  ASSERT_TRUE(of_.handle_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 1))
                  .is_ok());
  // Fill b's switch→VM ring (capacity 64) and keep injecting.
  for (int i = 0; i < 80; ++i) {
    inject(a, make_frame());
    poll_engine();
  }
  EXPECT_GT(of_.engines()[0]->counters().tx_ring_full, 0u);
  // Datapath drops live in the per-engine shards; the merged view is
  // what controllers see.
  auto b_stats = of_.port_stats(b);
  ASSERT_TRUE(b_stats.is_ok());
  EXPECT_EQ(b_stats.value().tx_dropped,
            of_.engines()[0]->counters().tx_ring_full);
  // No leak: everything is either in b's ring or freed.
  EXPECT_EQ(pool_.in_use(), 64u);
}

TEST_F(OfSwitchTest, PacketOutDeliversToPort) {
  const PortId a = add_port("a");
  openflow::PacketOut po;
  po.out_port = a;
  po.frame.resize(64, std::byte{0xab});
  ASSERT_TRUE(of_.handle_packet_out(po).is_ok());
  mbuf::Mbuf* out = extract(a);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->data_len, 64u);
  EXPECT_EQ(std::to_integer<unsigned>(out->data[10]), 0xabu);
  pool_.free(out);
  EXPECT_EQ(of_.counters().packet_outs, 1u);
}

TEST_F(OfSwitchTest, PacketOutValidation) {
  const PortId a = add_port("a");
  openflow::PacketOut po;
  po.out_port = 42;
  po.frame.resize(64);
  EXPECT_EQ(of_.handle_packet_out(po).code(), StatusCode::kNotFound);
  po.out_port = a;
  po.frame.clear();
  EXPECT_EQ(of_.handle_packet_out(po).code(), StatusCode::kInvalidArgument);
  po.frame.resize(mbuf::kMbufDataRoom + 1);
  EXPECT_EQ(of_.handle_packet_out(po).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(of_.set_port_enabled(a, false).is_ok());
  po.frame.resize(64);
  EXPECT_EQ(of_.handle_packet_out(po).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(OfSwitchTest, FlowStatsCountSwitchedTraffic) {
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  ASSERT_TRUE(of_.handle_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 77))
                  .is_ok());
  for (int i = 0; i < 5; ++i) {
    inject(a, make_frame());
    poll_engine();
  }
  const auto stats = of_.flow_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].cookie, 77u);
  EXPECT_EQ(stats[0].packet_count, 5u);
  EXPECT_EQ(stats[0].byte_count, 5u * 64);
  // Drain b.
  while (mbuf::Mbuf* out = extract(b)) pool_.free(out);

  // One burst that moves between rules: two rules output to the same
  // port, a third drops, and frames come in two lengths. The engine adds
  // rule counters once per run of frames on one rule, so every run
  // boundary below must hand over exactly its own frames.
  const PortId c = add_port("c");
  const PortId d = add_port("d");
  struct Rule {
    std::uint16_t dst_port;
    Cookie cookie;
    Action action;
  };
  const std::array<Rule, 3> rules = {Rule{2001, 81, Action::output(d)},
                                     Rule{2002, 82, Action::output(d)},
                                     Rule{2003, 83, Action::drop()}};
  for (const Rule& rule : rules) {
    FlowMod mod;
    mod.priority = 20;
    mod.cookie = rule.cookie;
    mod.match.in_port(c).l4_dst(rule.dst_port);
    mod.actions = {rule.action};
    ASSERT_TRUE(of_.handle_flow_mod(mod).is_ok());
  }
  // (rule, frame length) per frame, in arrival order.
  const std::array<std::pair<std::size_t, std::uint32_t>, 12> burst = {{
      {0, 64}, {0, 128}, {1, 64}, {0, 64}, {2, 128}, {2, 64},
      {1, 128}, {1, 128}, {0, 128}, {2, 64}, {1, 64}, {0, 64}}};
  std::array<std::uint64_t, 3> packets{};
  std::array<std::uint64_t, 3> bytes{};
  std::uint64_t burst_bytes = 0;
  for (const auto& [rule, frame_len] : burst) {
    mbuf::Mbuf* frame = make_frame(rules[rule].dst_port, frame_len);
    ++packets[rule];
    bytes[rule] += frame->data_len;
    burst_bytes += frame->data_len;
    inject(c, frame);
  }
  poll_engine();  // one burst: all 12 frames fit in kBurstSize
  const auto port_c = of_.port_stats(c);
  ASSERT_TRUE(port_c.is_ok());
  EXPECT_EQ(port_c.value().rx_packets, burst.size());
  EXPECT_EQ(port_c.value().rx_bytes, burst_bytes);
  const auto flows = of_.flow_stats();
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const auto flow = std::find_if(
        flows.begin(), flows.end(), [&](const openflow::FlowStatsEntry& e) {
          return e.cookie == rules[r].cookie;
        });
    ASSERT_NE(flow, flows.end()) << "cookie " << rules[r].cookie;
    EXPECT_EQ(flow->packet_count, packets[r]) << "cookie " << rules[r].cookie;
    EXPECT_EQ(flow->byte_count, bytes[r]) << "cookie " << rules[r].cookie;
  }
  while (mbuf::Mbuf* out = extract(d)) pool_.free(out);
  EXPECT_EQ(pool_.in_use(), 0u);

  // kBurstSize rules and two full bursts over them: one frame per rule,
  // so each frame is a run of its own; then 11 rules in the order 0, 5,
  // 10, 4, 9, ..., so early rules recur after later ones. Every rule's
  // counters and both ports' must come out exact.
  const PortId e = add_port("e");
  const PortId f = add_port("f");
  std::array<std::uint64_t, kBurstSize> rule_packets{};
  std::array<std::uint64_t, kBurstSize> rule_bytes{};
  for (std::uint32_t r = 0; r < kBurstSize; ++r) {
    FlowMod mod;
    mod.priority = 20;
    mod.cookie = 100 + r;
    mod.match.in_port(e).l4_dst(static_cast<std::uint16_t>(3000 + r));
    mod.actions = {r % 2 == 0 ? Action::output(f) : Action::drop()};
    ASSERT_TRUE(of_.handle_flow_mod(mod).is_ok());
  }
  std::uint64_t e_rx_packets = 0;
  std::uint64_t e_rx_bytes = 0;
  std::uint64_t f_tx_packets = 0;
  std::uint64_t f_tx_bytes = 0;
  for (const std::uint32_t stride : {1u, 5u}) {
    for (std::uint32_t i = 0; i < kBurstSize; ++i) {
      const std::uint32_t r = stride == 1 ? i : i * stride % 11;
      mbuf::Mbuf* frame = make_frame(static_cast<std::uint16_t>(3000 + r),
                                     64 + 32 * (i % 3));
      ++rule_packets[r];
      rule_bytes[r] += frame->data_len;
      ++e_rx_packets;
      e_rx_bytes += frame->data_len;
      if (r % 2 == 0) {
        ++f_tx_packets;
        f_tx_bytes += frame->data_len;
      }
      inject(e, frame);
    }
    poll_engine();  // one burst of kBurstSize frames
    const auto port_e = of_.port_stats(e);
    const auto port_f = of_.port_stats(f);
    ASSERT_TRUE(port_e.is_ok());
    ASSERT_TRUE(port_f.is_ok());
    EXPECT_EQ(port_e.value().rx_packets, e_rx_packets) << "stride " << stride;
    EXPECT_EQ(port_e.value().rx_bytes, e_rx_bytes) << "stride " << stride;
    EXPECT_EQ(port_f.value().tx_packets, f_tx_packets) << "stride " << stride;
    EXPECT_EQ(port_f.value().tx_bytes, f_tx_bytes) << "stride " << stride;
    const auto burst_flows = of_.flow_stats();
    for (std::uint32_t r = 0; r < kBurstSize; ++r) {
      const auto flow = std::find_if(
          burst_flows.begin(), burst_flows.end(),
          [&](const openflow::FlowStatsEntry& entry) {
            return entry.cookie == 100 + r;
          });
      ASSERT_NE(flow, burst_flows.end()) << "rule " << r;
      EXPECT_EQ(flow->packet_count, rule_packets[r])
          << "rule " << r << ", stride " << stride;
      EXPECT_EQ(flow->byte_count, rule_bytes[r])
          << "rule " << r << ", stride " << stride;
    }
    while (mbuf::Mbuf* out = extract(f)) pool_.free(out);
  }
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(OfSwitchTest, KeysOfOneBurstDoNotLeakIntoTheNext) {
  // The engine reuses its per-frame key slots from burst to burst. A TCP
  // burst fills them with ip_proto 6; the ARP burst after it must be
  // classified on ARP keys, whose IP fields are zero, so no ARP frame
  // may take the TCP rule above the steering rule.
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  const PortId tcp_out = add_port("tcp");
  ASSERT_TRUE(of_.handle_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 1))
                  .is_ok());
  FlowMod tcp_rule;
  tcp_rule.priority = 20;
  tcp_rule.cookie = 6;
  tcp_rule.match.in_port(a).ip_proto(pkt::kIpProtoTcp);
  tcp_rule.actions = {Action::output(tcp_out)};
  ASSERT_TRUE(of_.handle_flow_mod(tcp_rule).is_ok());

  std::array<mbuf::Mbuf*, kBurstSize> tcp{};
  for (std::size_t i = 0; i < tcp.size(); ++i) {
    pkt::FrameSpec spec;
    spec.ip_proto = pkt::kIpProtoTcp;
    spec.dst_port = static_cast<std::uint16_t>(2000 + i);
    tcp[i] = pool_.alloc();
    ASSERT_TRUE(pkt::build_frame(*tcp[i], spec));
    inject(a, tcp[i]);
  }
  poll_engine();
  for (mbuf::Mbuf* frame : tcp) {
    EXPECT_EQ(extract(tcp_out), frame);
    pool_.free(frame);
  }
  EXPECT_EQ(extract(b), nullptr);

  std::array<mbuf::Mbuf*, kBurstSize> arp{};
  for (std::size_t i = 0; i < arp.size(); ++i) {
    arp[i] = make_frame(static_cast<std::uint16_t>(2000 + i));
    reinterpret_cast<pkt::EthernetHeader*>(arp[i]->data)
        ->set_ether_type(pkt::kEtherTypeArp);
    inject(a, arp[i]);
  }
  poll_engine();
  for (mbuf::Mbuf* frame : arp) {
    EXPECT_EQ(extract(b), frame);
    pool_.free(frame);
  }
  EXPECT_EQ(extract(tcp_out), nullptr);

  for (const openflow::FlowStatsEntry& flow : of_.flow_stats()) {
    EXPECT_EQ(flow.packet_count, kBurstSize) << "cookie " << flow.cookie;
  }
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(OfSwitchTest, PortStatsCountBothDirections) {
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  ASSERT_TRUE(of_.handle_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 1))
                  .is_ok());
  inject(a, make_frame());
  poll_engine();
  const auto stats_a = of_.port_stats(a);
  ASSERT_TRUE(stats_a.is_ok());
  EXPECT_EQ(stats_a.value().rx_packets, 1u);
  const auto stats_b = of_.port_stats(b);
  ASSERT_TRUE(stats_b.is_ok());
  EXPECT_EQ(stats_b.value().tx_packets, 1u);
  EXPECT_FALSE(of_.port_stats(99).is_ok());
  while (mbuf::Mbuf* out = extract(b)) pool_.free(out);
}

TEST_F(OfSwitchTest, WireProtocolDispatch) {
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  // FlowMod via bytes.
  const auto mod_bytes =
      openflow::encode_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 5), 1);
  ASSERT_TRUE(of_.handle_message(mod_bytes).is_ok());
  EXPECT_EQ(of_.table().size(), 1u);

  // Flow stats via bytes.
  const auto stats_reply =
      of_.handle_message(openflow::encode_flow_stats_request(2));
  ASSERT_TRUE(stats_reply.is_ok());
  const auto entries =
      openflow::decode_flow_stats_reply(stats_reply.value());
  ASSERT_TRUE(entries.is_ok());
  ASSERT_EQ(entries.value().size(), 1u);
  EXPECT_EQ(entries.value()[0].cookie, 5u);

  // Port stats via bytes.
  const auto port_reply =
      of_.handle_message(openflow::encode_port_stats_request(a, 3));
  ASSERT_TRUE(port_reply.is_ok());
  ASSERT_TRUE(
      openflow::decode_port_stats_reply(port_reply.value()).is_ok());

  // Echo.
  std::vector<std::byte> echo(openflow::kMsgHeaderLen);
  echo[0] = static_cast<std::byte>(openflow::kWireVersion);
  echo[1] = static_cast<std::byte>(openflow::MsgType::kEchoRequest);
  echo[3] = static_cast<std::byte>(openflow::kMsgHeaderLen);
  echo[7] = std::byte{9};
  const auto echo_reply = of_.handle_message(echo);
  ASSERT_TRUE(echo_reply.is_ok());
  const auto echo_header = openflow::decode_header(echo_reply.value());
  ASSERT_TRUE(echo_header.is_ok());
  EXPECT_EQ(echo_header.value().type, openflow::MsgType::kEchoReply);
  EXPECT_EQ(echo_header.value().xid, 9u);

  // Garbage.
  EXPECT_FALSE(of_.handle_message(std::vector<std::byte>(3)).is_ok());
  EXPECT_GT(of_.counters().message_errors, 0u);
}

TEST_F(OfSwitchTest, EmcAcceleratesRepeatLookups) {
  const PortId a = add_port("a");
  const PortId b = add_port("b");
  ASSERT_TRUE(of_.handle_flow_mod(openflow::make_p2p_flowmod(a, b, 10, 1))
                  .is_ok());
  for (int i = 0; i < 10; ++i) {
    inject(a, make_frame());
    poll_engine();
  }
  EXPECT_EQ(of_.engines()[0]->tier_counters().emc_misses, 1u);
  EXPECT_EQ(of_.engines()[0]->tier_counters().emc_hits, 9u);
  while (mbuf::Mbuf* out = extract(b)) pool_.free(out);
}

TEST_F(OfSwitchTest, RssShardsOnePortAcrossEngines) {
  shm::ShmManager shm2;
  mbuf::Mempool pool2("p2", 1024);
  OfSwitch of2(shm2, pool2, runtime_, runtime_.cost(),
               {.ring_capacity = 64,
                .engine_count = 4,
                .rss = {.enabled = true, .buckets = 64},
                .bypass_enabled = false});
  ASSERT_NE(of2.rss(), nullptr);
  auto a = of2.add_dpdkr_port("a");
  auto b = of2.add_dpdkr_port("b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(
      of2.handle_flow_mod(openflow::make_p2p_flowmod(a.value(), b.value(),
                                                     10, 1))
          .is_ok());

  // 32 distinct flows into ONE port; the home engine must spread them.
  auto* in = static_cast<DpdkrSwitchPort*>(of2.port(a.value()));
  constexpr int kFlows = 32;
  for (int i = 0; i < kFlows; ++i) {
    mbuf::Mbuf* buf = pool2.alloc();
    pkt::FrameSpec spec;
    spec.dst_port = static_cast<std::uint16_t>(2000 + i);
    ASSERT_TRUE(pkt::build_frame(*buf, spec));
    ASSERT_TRUE(in->channel().b2a().enqueue(buf));
  }
  // Distributor poll + owner-queue drains (cross-engine frames sit in
  // per-engine rx queues until their owner polls).
  exec::CycleMeter meter;
  for (int round = 0; round < 3; ++round) {
    for (const auto& engine : of2.engines()) (void)engine->poll(meter);
  }

  // Transparency: every frame comes out of b, whatever engine carried it.
  auto* out = static_cast<DpdkrSwitchPort*>(of2.port(b.value()));
  int delivered = 0;
  mbuf::Mbuf* frame = nullptr;
  while (out->channel().a2b().dequeue(frame)) {
    pool2.free(frame);
    ++delivered;
  }
  EXPECT_EQ(delivered, kFlows);

  // The spread is real: the home engine distributed everything and more
  // than one engine classified a share.
  std::uint64_t distributed = 0;
  int engines_used = 0;
  for (const auto& engine : of2.engines()) {
    distributed += engine->counters().rss_distributed;
    if (engine->counters().rx_packets > 0) ++engines_used;
    EXPECT_EQ(engine->counters().rss_queue_drops, 0u);
  }
  EXPECT_EQ(distributed, static_cast<std::uint64_t>(kFlows));
  EXPECT_GT(engines_used, 1);

  // The merged controller view still reports the port totals exactly.
  auto a_stats = of2.port_stats(a.value());
  auto b_stats = of2.port_stats(b.value());
  ASSERT_TRUE(a_stats.is_ok());
  ASSERT_TRUE(b_stats.is_ok());
  EXPECT_EQ(a_stats.value().rx_packets, static_cast<std::uint64_t>(kFlows));
  EXPECT_EQ(b_stats.value().tx_packets, static_cast<std::uint64_t>(kFlows));
}

TEST_F(OfSwitchTest, DatapathStatsSumEveryEnginesTierCounters) {
  shm::ShmManager shm2;
  mbuf::Mempool pool2("p2", 1024);
  OfSwitch of2(shm2, pool2, runtime_, runtime_.cost(),
               {.ring_capacity = 64,
                .engine_count = 2,
                .rss = {.enabled = true, .buckets = 64},
                .bypass_enabled = false});
  ASSERT_NE(of2.rss(), nullptr);
  auto a = of2.add_dpdkr_port("a");
  auto b = of2.add_dpdkr_port("b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(
      of2.handle_flow_mod(openflow::make_p2p_flowmod(a.value(), b.value(),
                                                     10, 1))
          .is_ok());

  // Two passes over 32 flows into one port: the home engine spreads
  // them, so both engines upcall first and hit their caches after.
  auto* in = static_cast<DpdkrSwitchPort*>(of2.port(a.value()));
  auto* out = static_cast<DpdkrSwitchPort*>(of2.port(b.value()));
  exec::CycleMeter meter;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 32; ++i) {
      mbuf::Mbuf* buf = pool2.alloc();
      pkt::FrameSpec spec;
      spec.dst_port = static_cast<std::uint16_t>(2000 + i);
      ASSERT_TRUE(pkt::build_frame(*buf, spec));
      ASSERT_TRUE(in->channel().b2a().enqueue(buf));
    }
    for (int round = 0; round < 3; ++round) {
      for (const auto& engine : of2.engines()) (void)engine->poll(meter);
    }
    mbuf::Mbuf* frame = nullptr;
    while (out->channel().a2b().dequeue(frame)) pool2.free(frame);
  }

  for (const auto& engine : of2.engines()) {
    EXPECT_GT(engine->tier_counters().slow_path_lookups, 0u);
    EXPECT_GT(engine->tier_counters().emc_hits, 0u);
  }
  const classifier::TierCounters total = of2.datapath_stats();
  for (const classifier::TierCounterField& field :
       classifier::kTierCounterFields) {
    std::uint64_t sum = 0;
    for (const auto& engine : of2.engines()) {
      sum += engine->tier_counters().*field.member;
    }
    EXPECT_EQ(total.*field.member, sum) << field.name;
  }
}

TEST_F(OfSwitchTest, RssDisabledOnSingleEnginePool) {
  shm::ShmManager shm2;
  mbuf::Mempool pool2("p2", 64);
  OfSwitch of2(shm2, pool2, runtime_, runtime_.cost(),
               {.ring_capacity = 64,
                .engine_count = 1,
                .rss = {.enabled = true},
                .bypass_enabled = false});
  // One engine has nothing to shard across: the direct path stays.
  EXPECT_EQ(of2.rss(), nullptr);
  EXPECT_EQ(of2.rss_stats().bucket_migrations, 0u);
}

TEST_F(OfSwitchTest, EngineAssignmentRoundRobins) {
  shm::ShmManager shm2;
  mbuf::Mempool pool2("p2", 64);
  OfSwitch of2(shm2, pool2, runtime_, runtime_.cost(),
               {.ring_capacity = 64,
                .engine_count = 2,
                .bypass_enabled = false});
  for (int i = 0; i < 4; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "p%d", i);
    ASSERT_TRUE(of2.add_dpdkr_port(name).is_ok());
  }
  EXPECT_EQ(of2.engines()[0]->port_count(), 2u);
  EXPECT_EQ(of2.engines()[1]->port_count(), 2u);
}

}  // namespace
}  // namespace hw::vswitch
