#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "agent/compute_agent.h"
#include "chain/chain.h"
#include "common/log.h"
#include "openflow/messages.h"
#include "pmd/channel.h"
#include "pmd/control.h"
#include "vswitch/bypass_manager.h"

namespace hw::vswitch {
namespace {

/// Records requests instead of performing them; completions are driven by
/// the test. Isolates BypassManager from the real agent.
class FakeAgent final : public AgentInterface {
 public:
  void request_bypass_setup(const BypassSetupRequest& request) override {
    setups.push_back(request);
  }
  void request_bypass_teardown(
      const BypassTeardownRequest& request) override {
    teardowns.push_back(request);
  }
  std::vector<BypassSetupRequest> setups;
  std::vector<BypassTeardownRequest> teardowns;
};

class BypassManagerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kError); }

  BypassManagerTest()
      : stats_region_(*shm_.create(pmd::SharedStats::region_name(),
                                   pmd::SharedStats::bytes_required())
                           .value()),
        stats_(pmd::SharedStats::create_in(stats_region_).value()),
        manager_(shm_, table_, stats_,
                 IncrementalP2pDetector([](PortId port) { return port < 100; }),
                 BypassManagerConfig{.ring_capacity = 64}) {
    manager_.set_agent(&agent_);
    for (PortId port = 1; port <= 8; ++port) {
      manager_.add_candidate_port(port);
    }
  }

  void add_p2p(PortId from, PortId to, std::uint16_t priority = 100,
               Cookie cookie = 1) {
    ASSERT_TRUE(
        table_.apply(openflow::make_p2p_flowmod(from, to, priority, cookie))
            .is_ok());
    manager_.on_table_change();
  }

  void del_p2p(PortId from, PortId to, std::uint16_t priority = 100) {
    openflow::FlowMod mod = openflow::make_p2p_flowmod(from, to, priority, 0);
    mod.command = openflow::FlowModCommand::kDeleteStrict;
    ASSERT_TRUE(table_.apply(mod).is_ok());
    manager_.on_table_change();
  }

  shm::ShmManager shm_;
  flowtable::FlowTable table_;
  shm::ShmRegion& stats_region_;
  pmd::SharedStats stats_;
  FakeAgent agent_;
  BypassManager manager_;
};

TEST_F(BypassManagerTest, SetupRequestedOnLinkDetection) {
  add_p2p(1, 2);
  ASSERT_EQ(agent_.setups.size(), 1u);
  const auto& request = agent_.setups[0];
  EXPECT_EQ(request.from, 1);
  EXPECT_EQ(request.to, 2);
  EXPECT_EQ(request.region, "bypass.1-2");
  EXPECT_TRUE(request.plug_required);
  EXPECT_NE(shm_.find("bypass.1-2"), nullptr);  // channel pre-created
  EXPECT_EQ(manager_.pending_links(), 1u);
  EXPECT_EQ(manager_.active_links(), 0u);
}

TEST_F(BypassManagerTest, LinkActivatesOnAgentCompletion) {
  add_p2p(1, 2);
  manager_.on_bypass_ready(1, 2, true);
  EXPECT_EQ(manager_.active_links(), 1u);
  EXPECT_TRUE(manager_.link_active(1, 2));
  EXPECT_EQ(manager_.counters().setups_completed, 1u);
}

TEST_F(BypassManagerTest, SecondDirectionSharesRegion) {
  add_p2p(1, 2);
  add_p2p(2, 1, 100, 2);
  ASSERT_EQ(agent_.setups.size(), 2u);
  EXPECT_EQ(agent_.setups[1].region, "bypass.1-2");
  EXPECT_FALSE(agent_.setups[1].plug_required);  // same piece of memory
  // Distinct stats slots per direction.
  EXPECT_NE(agent_.setups[0].rule_slot, agent_.setups[1].rule_slot);
}

TEST_F(BypassManagerTest, TeardownOnRuleDelete) {
  add_p2p(1, 2);
  manager_.on_bypass_ready(1, 2, true);
  del_p2p(1, 2);
  ASSERT_EQ(agent_.teardowns.size(), 1u);
  EXPECT_TRUE(agent_.teardowns[0].unplug_after);
  // Region is destroyed only after the agent confirms.
  EXPECT_NE(shm_.find("bypass.1-2"), nullptr);
  manager_.on_bypass_torn_down(1, 2);
  EXPECT_EQ(shm_.find("bypass.1-2"), nullptr);
  EXPECT_EQ(manager_.links().size(), 0u);
}

TEST_F(BypassManagerTest, BidirectionalTeardownUnplugsExactlyOnce) {
  add_p2p(1, 2, 100, 1);
  add_p2p(2, 1, 100, 2);
  manager_.on_bypass_ready(1, 2, true);
  manager_.on_bypass_ready(2, 1, true);

  openflow::FlowMod del;
  del.command = openflow::FlowModCommand::kDelete;  // everything
  ASSERT_TRUE(table_.apply(del).is_ok());
  manager_.on_table_change();

  ASSERT_EQ(agent_.teardowns.size(), 2u);
  // Exactly one of the two teardowns carries the unplug.
  EXPECT_NE(agent_.teardowns[0].unplug_after,
            agent_.teardowns[1].unplug_after);
  manager_.on_bypass_torn_down(1, 2);
  EXPECT_NE(shm_.find("bypass.1-2"), nullptr);  // sibling still live
  manager_.on_bypass_torn_down(2, 1);
  EXPECT_EQ(shm_.find("bypass.1-2"), nullptr);
}

TEST_F(BypassManagerTest, CancelDuringSetupTriggersTeardownAfterReady) {
  add_p2p(1, 2);
  // Rule disappears while the agent is still plugging.
  del_p2p(1, 2);
  EXPECT_TRUE(agent_.teardowns.empty());  // not yet: setup in flight
  manager_.on_bypass_ready(1, 2, true);
  ASSERT_EQ(agent_.teardowns.size(), 1u);  // immediately dismantled
  manager_.on_bypass_torn_down(1, 2);
  EXPECT_TRUE(manager_.links().empty());
}

TEST_F(BypassManagerTest, SetupFailureReleasesEverything) {
  add_p2p(1, 2);
  manager_.on_bypass_ready(1, 2, false);
  EXPECT_EQ(manager_.counters().setups_failed, 1u);
  EXPECT_TRUE(manager_.links().empty());
  EXPECT_EQ(shm_.find("bypass.1-2"), nullptr);
}

TEST_F(BypassManagerTest, DestinationChangeRewiresAfterTeardown) {
  add_p2p(1, 2);
  manager_.on_bypass_ready(1, 2, true);
  // Higher-priority catch-all to a different destination.
  add_p2p(1, 3, 200, 9);
  ASSERT_EQ(agent_.teardowns.size(), 1u);  // old link dismantled first
  EXPECT_EQ(agent_.setups.size(), 1u);     // no premature new setup
  manager_.on_bypass_torn_down(1, 2);
  // Teardown completion re-evaluates: new link 1→3 requested.
  ASSERT_EQ(agent_.setups.size(), 2u);
  EXPECT_EQ(agent_.setups[1].to, 3);
  EXPECT_EQ(agent_.setups[1].region, "bypass.1-3");
}

TEST_F(BypassManagerTest, RuleExtraMergesSharedCounters) {
  add_p2p(1, 2, 100, 42);
  manager_.on_bypass_ready(1, 2, true);
  const auto slot = agent_.setups[0].rule_slot;
  stats_.account_bypass(1, 2, slot, 1000, 64000);
  const RuleId rule = manager_.links().at(1).link.rule;
  const auto [pkts, bytes] = manager_.rule_extra(rule);
  EXPECT_EQ(pkts, 1000u);
  EXPECT_EQ(bytes, 64000u);
  EXPECT_EQ(manager_.rule_extra(kRuleNone).first, 0u);
}

TEST_F(BypassManagerTest, TeardownFoldsCountersIntoRule) {
  add_p2p(1, 2, 100, 42);
  manager_.on_bypass_ready(1, 2, true);
  const auto slot = agent_.setups[0].rule_slot;
  stats_.account_bypass(1, 2, slot, 500, 32000);
  const RuleId rule = manager_.links().at(1).link.rule;

  // Teardown caused by something other than rule deletion (e.g. a
  // higher-priority diverting rule): the rule survives, so the bypassed
  // counters must be folded into it.
  openflow::FlowMod divert;
  divert.priority = 300;
  divert.match.in_port(1).l4_dst(80);
  divert.actions = {openflow::Action::output(3)};
  ASSERT_TRUE(table_.apply(divert).is_ok());
  manager_.on_table_change();
  manager_.on_bypass_torn_down(1, 2);

  EXPECT_EQ(table_.find(rule)->packet_count, 500u);
  EXPECT_EQ(table_.find(rule)->byte_count, 32000u);
  // Slot recycled and clean.
  EXPECT_EQ(stats_.read_rule(slot).first, 0u);
}

TEST_F(BypassManagerTest, NoAgentMeansNoLink) {
  manager_.set_agent(nullptr);
  add_p2p(1, 2);
  EXPECT_TRUE(manager_.links().empty());
}

// Regression: both directions of a pair deactivate in the same drain,
// and the steering rule reappears while the teardowns are in flight.
// The new setup must wait for the pair's region to be unplugged and
// destroyed — starting against the old region would attach memory the
// reverse direction's pending unplug is about to pull out from under it
// (the double-unplug / region-destroy race).
TEST_F(BypassManagerTest, ReAddDuringPairTeardownWaitsForRegionDestroy) {
  add_p2p(1, 2, 100, 1);
  add_p2p(2, 1, 100, 2);
  manager_.on_bypass_ready(1, 2, true);
  manager_.on_bypass_ready(2, 1, true);
  const std::uint64_t first_epoch = agent_.setups[0].epoch;

  openflow::FlowMod del;
  del.command = openflow::FlowModCommand::kDelete;  // both rules, one drain
  ASSERT_TRUE(table_.apply(del).is_ok());
  manager_.on_table_change();
  ASSERT_EQ(agent_.teardowns.size(), 2u);

  // The rule comes back mid-teardown.
  add_p2p(1, 2, 100, 3);
  ASSERT_EQ(agent_.setups.size(), 2u);  // nothing new yet (still torn)

  // 1->2's teardown completes first; 2->1 still holds the region with
  // its unplug pending — the new setup must stay parked.
  manager_.on_bypass_torn_down(1, 2);
  EXPECT_EQ(agent_.setups.size(), 2u);
  EXPECT_EQ(manager_.counters().setups_deferred_region, 1u);
  EXPECT_EQ(manager_.deferred_links(), 1u);
  EXPECT_NE(shm_.find("bypass.1-2"), nullptr);

  // Reverse teardown completes: region destroyed, parked setup starts
  // against a *fresh* region — full hot-plug, new epoch.
  manager_.on_bypass_torn_down(2, 1);
  ASSERT_EQ(agent_.setups.size(), 3u);
  EXPECT_TRUE(agent_.setups[2].plug_required);
  EXPECT_GT(agent_.setups[2].epoch, first_epoch);
  manager_.on_bypass_ready(1, 2, true);
  EXPECT_TRUE(manager_.link_active(1, 2));
  EXPECT_EQ(manager_.deferred_links(), 0u);
}

TEST_F(BypassManagerTest, InflightCapDefersSetupsUntilCompletion) {
  FakeAgent agent2;
  BypassManager mgr(
      shm_, table_, stats_,
      IncrementalP2pDetector([](PortId port) { return port < 100; }),
      BypassManagerConfig{.ring_capacity = 64, .max_inflight_ops = 1});
  mgr.set_agent(&agent2);
  for (PortId port = 1; port <= 8; ++port) mgr.add_candidate_port(port);

  ASSERT_TRUE(
      table_.apply(openflow::make_p2p_flowmod(1, 2, 100, 1)).is_ok());
  ASSERT_TRUE(
      table_.apply(openflow::make_p2p_flowmod(3, 4, 100, 2)).is_ok());
  mgr.on_table_change();
  EXPECT_EQ(agent2.setups.size(), 1u);  // one op in flight, one parked
  EXPECT_EQ(mgr.inflight_ops(), 1u);
  EXPECT_EQ(mgr.deferred_links(), 1u);
  EXPECT_EQ(mgr.counters().setups_deferred_inflight, 1u);

  mgr.on_bypass_ready(1, 2, true);  // completion frees the slot
  EXPECT_EQ(agent2.setups.size(), 2u);
  mgr.on_bypass_ready(3, 4, true);
  EXPECT_EQ(mgr.active_links(), 2u);
  EXPECT_EQ(mgr.deferred_links(), 0u);
}

TEST_F(BypassManagerTest, CandidateRemovalTearsDownOwnLink) {
  add_p2p(1, 2, 100, 1);
  manager_.on_bypass_ready(1, 2, true);
  manager_.remove_candidate_port(1);
  ASSERT_EQ(agent_.teardowns.size(), 1u);
  EXPECT_TRUE(agent_.teardowns[0].unplug_after);
  manager_.on_bypass_torn_down(1, 2);
  EXPECT_TRUE(manager_.links().empty());
  // The port is no longer a candidate: re-adding the rule does nothing.
  add_p2p(1, 2, 100, 2);
  EXPECT_TRUE(manager_.links().empty());
}

TEST_F(BypassManagerTest, RxFaninCapParksFifthInboundLink) {
  // Fill the destination's RX-ring budget: four sources into port 1.
  for (PortId from = 2; from <= 5; ++from) {
    add_p2p(from, 1, 100, from);
    manager_.on_bypass_ready(from, 1, true);
  }
  ASSERT_EQ(agent_.setups.size(), 4u);

  // A fifth inbound link must NOT reach the agent — the guest PMD would
  // NACK the RX attach and the link would be dropped without retry.
  add_p2p(6, 1, 100, 6);
  EXPECT_EQ(agent_.setups.size(), 4u);
  EXPECT_EQ(manager_.counters().setups_deferred_fanin, 1u);
  EXPECT_EQ(manager_.deferred_links(), 1u);

  // Deleting one inbound rule starts its teardown, but the ring is still
  // occupied until the teardown completes: the parked link stays parked.
  del_p2p(2, 1);
  ASSERT_EQ(agent_.teardowns.size(), 1u);
  EXPECT_EQ(agent_.setups.size(), 4u);
  EXPECT_EQ(manager_.deferred_links(), 1u);

  // Teardown completion frees the RX slot and drains the parked setup.
  manager_.on_bypass_torn_down(2, 1);
  ASSERT_EQ(agent_.setups.size(), 5u);
  EXPECT_EQ(agent_.setups.back().from, 6);
  EXPECT_EQ(agent_.setups.back().to, 1);
  EXPECT_EQ(manager_.deferred_links(), 0u);
}

}  // namespace
}  // namespace hw::vswitch

// ---------------------------------------------------------------------
// ComputeAgent driven end-to-end inside a scenario (real protocol).
// ---------------------------------------------------------------------

namespace hw::agent {
namespace {

class AgentProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kError); }
};

TEST_F(AgentProtocolTest, SetupFollowsRxBeforeTxOrder) {
  chain::ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = true;
  config.bidirectional = false;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  ASSERT_TRUE(chain.wait_bypass_ready());

  // Both PMD reconfigurations acked, both plugs performed.
  const AgentCounters& counters = chain.agent().counters();
  EXPECT_EQ(counters.setups, 2u);  // two directions (rules both ways)
  EXPECT_EQ(counters.setups_ok, 2u);
  EXPECT_EQ(counters.setup_failures, 0u);
  EXPECT_EQ(counters.plugs, 2u);  // one region, two VMs
  EXPECT_EQ(counters.ctrl_nacks, 0u);
  // 2 directions × (AttachRx + AttachTx).
  EXPECT_EQ(counters.ctrl_sent, 4u);
}

TEST_F(AgentProtocolTest, SetupTimeMatchesLatencyModel) {
  chain::ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = true;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  const TimeNs t0 = chain.runtime().elapsed_ns();
  ASSERT_TRUE(chain.wait_bypass_ready());
  const TimeNs elapsed = chain.runtime().elapsed_ns() - t0;
  const TimeNs expected = config.hotplug.expected_setup_ns();
  // Paper: "on the order of 100 ms". Allow 15% for epoch granularity and
  // control-ring polling.
  EXPECT_GT(elapsed, expected - expected / 10);
  EXPECT_LT(elapsed, expected + expected / 4);
}

TEST_F(AgentProtocolTest, TeardownQuiescesAndUnplugs) {
  chain::ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = true;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  ASSERT_TRUE(chain.wait_bypass_ready());
  chain.warmup(2'000'000);

  ASSERT_TRUE(chain.remove_chain_rules().is_ok());
  ASSERT_TRUE(chain.runtime().run_until(
      [&] { return chain.of().bypass_manager().links().empty(); },
      400'000'000));
  EXPECT_EQ(chain.agent().counters().teardowns, 2u);
  EXPECT_EQ(chain.agent().counters().unplugs, 2u);
  // Region gone from the host.
  EXPECT_EQ(chain.shm().find("bypass.2-3"), nullptr);
  // And no packets were lost in the transition.
  EXPECT_TRUE(chain.drain());
}

// A direction set up while its sibling holds the plugged region skips
// the hot-plug, but not the OVS->agent request: it starts when the
// request arrives, then configures RX and TX over virtio-serial.
TEST_F(AgentProtocolTest, SecondDirectionWaitsForItsRequestRtt) {
  chain::ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = true;
  // Only the request and serial RTTs are measured: shorten the QEMU and
  // guest steps around them.
  config.hotplug.qemu_plug_ns /= 10;
  config.hotplug.pci_scan_ns /= 10;
  config.hotplug.qemu_unplug_ns /= 10;
  chain::ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  ASSERT_TRUE(chain.wait_bypass_ready());
  ASSERT_TRUE(chain.remove_chain_rules().is_ok());
  auto& manager = chain.of().bypass_manager();
  ASSERT_TRUE(chain.runtime().run_until([&] { return manager.links().empty(); },
                                        500'000'000));

  const PortId from = chain.right_port(0);
  const PortId to = chain.left_port(1);
  ASSERT_TRUE(
      chain.send_flow_mod(openflow::make_p2p_flowmod(from, to, 100, 1)).is_ok());
  ASSERT_TRUE(chain.runtime().run_until(
      [&] { return manager.link_active(from, to); }, 1'000'000'000));

  const TimeNs t0 = chain.runtime().elapsed_ns();
  ASSERT_TRUE(
      chain.send_flow_mod(openflow::make_p2p_flowmod(to, from, 100, 2)).is_ok());
  ASSERT_TRUE(chain.runtime().run_until(
      [&] { return manager.link_active(to, from); }, 1'000'000'000));
  const TimeNs elapsed = chain.runtime().elapsed_ns() - t0;
  const TimeNs expected =
      config.hotplug.request_rtt_ns + 2 * config.hotplug.serial_rtt_ns;
  EXPECT_GE(elapsed, expected);
  EXPECT_LT(elapsed, expected + expected / 10);
}

TEST_F(AgentProtocolTest, UnknownVmMappingFailsCleanly) {
  shm::ShmManager shm;
  exec::SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  ComputeAgent agent(shm, runtime, HotplugLatencyModel::instant());

  struct Sink final : vswitch::BypassEventSink {
    void on_bypass_ready(PortId, PortId, bool ok_in) override {
      called = true;
      ok = ok_in;
    }
    void on_bypass_torn_down(PortId, PortId) override {}
    bool called = false;
    bool ok = true;
  } sink;
  agent.set_event_sink(&sink);

  agent.request_bypass_setup(vswitch::BypassSetupRequest{
      .from = 1, .to = 2, .region = "r", .epoch = 0, .rule_slot = 0,
      .plug_required = true});
  EXPECT_TRUE(sink.called);
  EXPECT_FALSE(sink.ok);
  EXPECT_EQ(agent.counters().setup_failures, 1u);
}

// ---------------------------------------------------------------------
// ComputeAgent against a scripted guest: the test plays both PMDs.
// ---------------------------------------------------------------------

using pmd::CtrlMsg;
using pmd::CtrlOp;

/// Owns two ports' control channels and the pair's bypass region, and
/// runs only the agent on a SimRuntime. After every epoch it pops the
/// commands the agent sent and answers each as `script_` says; a
/// command left silent stays in `sent_`, so the test can answer it
/// later with answer().
class ScriptedGuestTest : public ::testing::Test {
 protected:
  enum class Reply { kAck, kNack, kSilence };
  struct Sent {
    PortId port;
    CtrlMsg msg;
  };

  static constexpr PortId kFrom = 1;  ///< TX side, endpoint A
  static constexpr PortId kTo = 2;    ///< RX side
  static constexpr VmId kVmFrom = 10;
  static constexpr VmId kVmTo = 20;
  static constexpr TimeNs kEpochNs = 10'000;
  static constexpr std::size_t kRing = 64;
  /// The agent's per-op deadline, counted from the request's arrival.
  static constexpr TimeNs kOpTimeoutNs = 2'000'000'000;

  static void SetUpTestSuite() { set_log_level(LogLevel::kError); }

  ScriptedGuestTest()
      : runtime_({.epoch_ns = kEpochNs, .cost = {}}),
        agent_(shm_, runtime_, latency_),
        sink_(runtime_) {
    for (const PortId port : {kFrom, kTo}) {
      shm::ShmRegion* region =
          shm_.create(pmd::control_channel_region(port),
                      pmd::ControlChannel::bytes_required())
              .value();
      ctrl_[port] = pmd::ControlChannel::create_in(*region).value();
    }
    shm::ShmRegion* bypass =
        shm_.create(region_, pmd::ChannelView::bytes_required(kRing)).value();
    channel_ =
        pmd::ChannelView::create_in(*bypass, kRing, kFrom, kTo, 1).value();
    agent_.register_port(kFrom, kVmFrom);
    agent_.register_port(kTo, kVmTo);
    agent_.set_event_sink(&sink_);
    runtime_.add_context(&agent_);
  }

  void request_setup(bool plug_required) {
    agent_.request_bypass_setup(vswitch::BypassSetupRequest{
        .from = kFrom, .to = kTo, .region = region_, .epoch = 1,
        .rule_slot = 0, .plug_required = plug_required});
  }
  void request_teardown(bool unplug_after) {
    agent_.request_bypass_teardown(vswitch::BypassTeardownRequest{
        .from = kFrom, .to = kTo, .region = region_,
        .unplug_after = unplug_after});
  }

  void answer(PortId port, CtrlMsg msg, bool ok) {
    msg.ok = ok ? 1 : 0;
    ASSERT_TRUE(ctrl_.at(port).ack().enqueue(msg));
  }

  /// Steps epochs, answering commands after each, until `done` holds
  /// or `max_ns` of virtual time passed.
  bool run_until(const std::function<bool()>& done, TimeNs max_ns) {
    const TimeNs end = runtime_.elapsed_ns() + max_ns;
    while (!done()) {
      if (runtime_.elapsed_ns() >= end) return false;
      runtime_.step_epoch();
      CtrlMsg msg;
      for (const PortId port : {kFrom, kTo}) {
        while (ctrl_.at(port).cmd().dequeue(msg)) {
          sent_.push_back({port, msg});
          const Reply reply = script_(port, msg);
          if (reply != Reply::kSilence) answer(port, msg, reply == Reply::kAck);
        }
      }
    }
    return true;
  }
  void run_for(TimeNs ns) {
    (void)run_until([] { return false; }, ns);
  }

  [[nodiscard]] std::size_t count(CtrlOp op, PortId port) const {
    std::size_t n = 0;
    for (const Sent& s : sent_) n += s.msg.op == op && s.port == port ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t plug_count() {
    return shm_.find(region_)->plug_count();
  }

  /// Completion callbacks, stamped with the epoch they arrived in.
  struct Sink final : vswitch::BypassEventSink {
    explicit Sink(exec::SimRuntime& runtime) : runtime(&runtime) {}
    void on_bypass_ready(PortId, PortId, bool ok_in) override {
      ok = ok_in;
      ready_at = runtime->epoch_start_ns();
    }
    void on_bypass_torn_down(PortId, PortId) override {
      torn_down_at = runtime->epoch_start_ns();
    }
    exec::SimRuntime* runtime;
    std::optional<bool> ok;
    std::optional<TimeNs> ready_at;
    std::optional<TimeNs> torn_down_at;
  };

  HotplugLatencyModel latency_;
  const std::string region_ = pmd::bypass_channel_region(kFrom, kTo);
  shm::ShmManager shm_;
  exec::SimRuntime runtime_;
  ComputeAgent agent_;
  Sink sink_;
  std::map<PortId, pmd::ControlChannel> ctrl_;
  pmd::ChannelView channel_;
  std::function<Reply(PortId, const CtrlMsg&)> script_ =
      [](PortId, const CtrlMsg&) { return Reply::kAck; };
  std::vector<Sent> sent_;
};

TEST_F(ScriptedGuestTest, AckCountsOnlyFromThePortAndSeqItAnswers) {
  // The RX PMD acks its attach and, beside that ack, acks the next 16
  // seqs as if it were the TX side; the TX PMD stays silent.
  script_ = [this](PortId port, const CtrlMsg& cmd) {
    if (port == kFrom) return Reply::kSilence;
    for (std::uint16_t i = 1; i <= 16; ++i) {
      CtrlMsg forged = cmd;
      forged.op = CtrlOp::kAttachBypassTx;
      forged.seq = static_cast<std::uint16_t>(cmd.seq + i);
      answer(kTo, forged, true);
    }
    return Reply::kAck;
  };
  request_setup(true);
  ASSERT_TRUE(run_until(
      [&] { return count(CtrlOp::kAttachBypassTx, kFrom) == 1; },
      1'000'000'000));
  run_for(10 * latency_.serial_rtt_ns);
  EXPECT_FALSE(sink_.ok.has_value());

  // The TX PMD acks its own command: only now does the setup complete.
  answer(kFrom, sent_.back().msg, true);
  ASSERT_TRUE(run_until([&] { return sink_.ok.has_value(); },
                        10 * latency_.serial_rtt_ns));
  EXPECT_TRUE(*sink_.ok);
  EXPECT_EQ(agent_.counters().setups_ok, 1u);
  EXPECT_EQ(agent_.counters().ctrl_nacks, 0u);
}

TEST_F(ScriptedGuestTest, RxAttachNackFailsBeforeAnyTxCommand) {
  script_ = [](PortId, const CtrlMsg& cmd) {
    return cmd.op == CtrlOp::kAttachBypassRx ? Reply::kNack : Reply::kAck;
  };
  request_setup(true);
  ASSERT_TRUE(
      run_until([&] { return sink_.ok.has_value(); }, 1'000'000'000));
  EXPECT_FALSE(*sink_.ok);
  run_for(10 * latency_.serial_rtt_ns);  // nothing follows the failure

  ASSERT_EQ(sent_.size(), 1u);  // no TX command, and no rollback
  EXPECT_EQ(count(CtrlOp::kAttachBypassRx, kTo), 1u);
  const AgentCounters& c = agent_.counters();
  EXPECT_EQ(c.setups, 1u);
  EXPECT_EQ(c.setup_failures, 1u);
  EXPECT_EQ(c.ctrl_sent, 1u);
  EXPECT_EQ(c.ctrl_nacks, 1u);
  EXPECT_EQ(c.timeouts, 0u);
  // The plugs this setup made are undone.
  EXPECT_EQ(c.plugs, 2u);
  EXPECT_EQ(c.unplugs, 2u);
  EXPECT_EQ(plug_count(), 0u);
}

TEST_F(ScriptedGuestTest, TxAttachNackRollsBackTheRxAttach) {
  script_ = [](PortId, const CtrlMsg& cmd) {
    return cmd.op == CtrlOp::kAttachBypassTx ? Reply::kNack : Reply::kAck;
  };
  request_setup(true);
  ASSERT_TRUE(
      run_until([&] { return sink_.ok.has_value(); }, 1'000'000'000));
  EXPECT_FALSE(*sink_.ok);

  ASSERT_EQ(sent_.size(), 3u);
  EXPECT_EQ(sent_[0].msg.op, CtrlOp::kAttachBypassRx);
  EXPECT_EQ(sent_[0].port, kTo);
  EXPECT_EQ(sent_[1].msg.op, CtrlOp::kAttachBypassTx);
  EXPECT_EQ(sent_[1].port, kFrom);
  // Rollback: the RX side, already attached, is told to detach.
  EXPECT_EQ(sent_[2].msg.op, CtrlOp::kDetachBypassRx);
  EXPECT_EQ(sent_[2].port, kTo);
  EXPECT_EQ(sent_[2].msg.region_name(), region_);
  const AgentCounters& c = agent_.counters();
  EXPECT_EQ(c.setup_failures, 1u);
  EXPECT_EQ(c.ctrl_sent, 3u);
  EXPECT_EQ(c.ctrl_nacks, 1u);
  EXPECT_EQ(c.unplugs, 2u);
  EXPECT_EQ(plug_count(), 0u);
}

TEST_F(ScriptedGuestTest, SilentGuestTimesOutSetupAndForcesTeardown) {
  script_ = [](PortId, const CtrlMsg&) { return Reply::kSilence; };
  const TimeNs setup_deadline =
      runtime_.elapsed_ns() + latency_.request_rtt_ns + kOpTimeoutNs;
  request_setup(true);
  ASSERT_TRUE(run_until([&] { return sink_.ok.has_value(); },
                        kOpTimeoutNs + 1'000'000'000));
  EXPECT_FALSE(*sink_.ok);
  EXPECT_GT(*sink_.ready_at, setup_deadline);
  EXPECT_LE(*sink_.ready_at, setup_deadline + 2 * kEpochNs);
  EXPECT_EQ(agent_.counters().timeouts, 1u);
  EXPECT_EQ(agent_.counters().setup_failures, 1u);
  EXPECT_EQ(count(CtrlOp::kAttachBypassRx, kTo), 1u);
  EXPECT_EQ(sent_.size(), 1u);  // RX never acked: nothing to roll back
  EXPECT_EQ(plug_count(), 0u);

  const TimeNs teardown_deadline =
      runtime_.elapsed_ns() + latency_.request_rtt_ns + kOpTimeoutNs;
  request_teardown(false);
  ASSERT_TRUE(run_until([&] { return sink_.torn_down_at.has_value(); },
                        kOpTimeoutNs + 1'000'000'000));
  // Forced at the deadline, stuck waiting for the TX detach's ack.
  EXPECT_GT(*sink_.torn_down_at, teardown_deadline);
  EXPECT_LE(*sink_.torn_down_at, teardown_deadline + 2 * kEpochNs);
  EXPECT_EQ(count(CtrlOp::kDetachBypassTx, kFrom), 1u);
  EXPECT_EQ(count(CtrlOp::kDetachBypassRx, kTo), 0u);
  EXPECT_EQ(agent_.counters().timeouts, 2u);
  EXPECT_EQ(agent_.inflight_ops(), 0u);
}

TEST_F(ScriptedGuestTest, DetachRxNackRetriesAfterTheRingDrains) {
  // The region as a finished setup leaves it: plugged into both VMs.
  ASSERT_TRUE(shm_.plug(region_, kVmFrom).is_ok());
  ASSERT_TRUE(shm_.plug(region_, kVmTo).is_ok());
  mbuf::Mbuf frame;  // never read: the agent only asks if the ring is empty
  pmd::MbufRing& ring = channel_.a2b();  // kFrom is A: its TX ring
  bool nacked = false;
  script_ = [&](PortId, const CtrlMsg& cmd) {
    if (cmd.op != CtrlOp::kDetachBypassRx || nacked) return Reply::kAck;
    // A frame slipped in after the agent's emptiness check.
    nacked = true;
    EXPECT_TRUE(ring.enqueue(&frame));
    return Reply::kNack;
  };
  request_teardown(true);
  ASSERT_TRUE(run_until([&] { return nacked; }, 1'000'000'000));
  run_for(10 * latency_.serial_rtt_ns);
  // The frame is still queued: the agent re-checks the ring and waits.
  EXPECT_EQ(count(CtrlOp::kDetachBypassRx, kTo), 1u);
  EXPECT_FALSE(sink_.torn_down_at.has_value());

  mbuf::Mbuf* drained = nullptr;
  ASSERT_TRUE(ring.dequeue(drained));  // the RX PMD consumes it
  ASSERT_TRUE(run_until([&] { return sink_.torn_down_at.has_value(); },
                        1'000'000'000));
  EXPECT_EQ(count(CtrlOp::kDetachBypassTx, kFrom), 1u);
  EXPECT_EQ(count(CtrlOp::kDetachBypassRx, kTo), 2u);
  const AgentCounters& c = agent_.counters();
  EXPECT_EQ(c.drain_retries, 1u);
  EXPECT_EQ(c.ctrl_nacks, 1u);
  EXPECT_EQ(c.timeouts, 0u);
  EXPECT_EQ(c.unplugs, 2u);
  EXPECT_EQ(plug_count(), 0u);
}

}  // namespace
}  // namespace hw::agent
