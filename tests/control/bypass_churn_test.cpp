#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "agent/compute_agent.h"
#include "chain/chain.h"
#include "common/log.h"
#include "common/rng.h"
#include "pmd/channel.h"
#include "pmd/guest_pmd.h"
#include "vm/apps.h"
#include "vm/vm.h"
#include "vswitch/of_switch.h"

/// \file bypass_churn_test.cpp
/// FLEET CHURN ORACLE. A fleet of VMs behind one switch, with the real
/// compute agent running the real hot-plug/ack protocol (instant latency
/// model), under randomized FlowMod add/modify/delete churn interleaved
/// with VM hotplug and retirement. Three variants:
///
///  * strict  — one control-plane operation per step, converge, and check
///              the manager's link set against a from-scratch
///              `P2pDetector::evaluate_all` ground truth, with EXACT
///              aggregate activate/deactivate accounting (per-step set
///              diffs sum to the per-link transition counts);
///  * burst   — operations land while setups/teardowns are still in
///              flight (cancel paths, the in-flight cap and the
///              region-destroy fence all get exercised), with set
///              equivalence checked at random convergence points;
///  * traffic — a live chain where a middle hop's bypass is repeatedly
///              broken (same-output diverter rule) and re-established
///              while paced traffic flows: every generated packet must be
///              delivered — a stale-channel serve or a drop on fallback
///              shows up as generated != delivered after drain.
///
/// Every variant ends by deleting all rules and asserting the fleet winds
/// down clean: no links, no leaked channel regions, plugs == unplugs, no
/// agent failures/timeouts/nacks.

namespace hw::vswitch {
namespace {

constexpr std::size_t kMaxFleetPorts = 24;

/// One VM per dpdkr port, a pure-sink guest app per port (it pumps the
/// guest PMD, which is what acknowledges the agent's control messages).
struct Fleet {
  shm::ShmManager shm;
  mbuf::Mempool pool{"fleet.mb", 4096};
  exec::CostModel cost{};
  exec::SimRuntime runtime{exec::SimConfig{.epoch_ns = 1000, .cost = cost}};
  OfSwitch of{shm, pool, runtime, cost,
              SwitchConfig{.ring_capacity = 128,
                           .engine_count = 2,
                           .bypass_enabled = true,
                           .bypass_max_inflight = 4}};
  agent::ComputeAgent agent{shm, runtime,
                            agent::HotplugLatencyModel::instant()};
  vm::Hypervisor hyp{shm, agent, cost};
  std::vector<std::unique_ptr<exec::Context>> apps;
  std::vector<PortId> live;  ///< candidate (non-retired) ports
  std::set<std::string> regions_ever;
  int next_vm = 0;

  Fleet() {
    set_log_level(LogLevel::kError);
    agent.set_event_sink(&of.bypass_manager());
    of.bypass_manager().set_agent(&agent);
    for (exec::Context* engine : of.engine_contexts()) {
      runtime.add_context(engine);
    }
    runtime.add_context(&agent);
  }

  PortId hotplug() {
    const std::string name = "vm" + std::to_string(next_vm++);
    vm::Vm& guest = hyp.create_vm(name);
    auto port = of.add_dpdkr_port(name + ".p");
    EXPECT_TRUE(port.is_ok());
    EXPECT_TRUE(hyp.attach_port(guest, port.value()).is_ok());
    auto app = std::make_unique<vm::GenSinkApp>(
        "sink." + name, *guest.pmd_for_port(port.value()), pool,
        pkt::TrafficProfile{}, runtime, cost, /*generate=*/false);
    runtime.add_context(app.get());
    apps.push_back(std::move(app));
    live.push_back(port.value());
    return port.value();
  }

  void retire(PortId port) {
    ASSERT_TRUE(of.retire_dpdkr_port(port).is_ok());
    live.erase(std::find(live.begin(), live.end(), port));
  }

  /// Runs until every requested operation completed and nothing is
  /// parked. Returns false on (virtual-time) timeout.
  bool converge(TimeNs max_ns = 100'000'000) {
    BypassManager& mgr = of.bypass_manager();
    return runtime.run_until(
        [&] {
          return agent.inflight_ops() == 0 && mgr.inflight_ops() == 0 &&
                 mgr.deferred_links() == 0 && mgr.pending_links() == 0;
        },
        max_ns);
  }

  /// Detector ground truth over the current candidate ports, recomputed
  /// from scratch with the reference (non-incremental) detector.
  std::vector<P2pLink> ground_truth() {
    P2pDetector oracle(
        [this](PortId id) { return of.is_bypass_eligible(id); });
    std::vector<PortId> ports = live;
    std::sort(ports.begin(), ports.end());
    return oracle.evaluate_all(of.table(), ports);
  }

  /// Asserts the converged manager state equals the ground truth and no
  /// channel region exists beyond the ones current links need.
  void check_converged(const std::vector<P2pLink>& truth,
                       std::uint64_t seed, int step) {
    BypassManager& mgr = of.bypass_manager();
    if (mgr.links().size() != truth.size()) {
      std::string have;
      std::string want;
      for (const auto& [from, info] : mgr.links()) {
        have += std::to_string(from) + "->" +
                std::to_string(info.link.to) + " ";
      }
      for (const P2pLink& link : truth) {
        want += std::to_string(link.from) + "->" +
                std::to_string(link.to) + " ";
      }
      FAIL() << "seed " << seed << " step " << step << ": manager has [ "
             << have << "] but ground truth is [ " << want << "]";
    }
    std::set<std::string> needed;
    for (const P2pLink& link : truth) {
      ASSERT_TRUE(mgr.link_active(link.from, link.to))
          << "seed " << seed << " step " << step << ": link " << link.from
          << "->" << link.to << " missing or inactive";
      ASSERT_EQ(mgr.links().at(link.from).link, link)
          << "seed " << seed << " step " << step;
      needed.insert(pmd::bypass_channel_region(
          std::min(link.from, link.to), std::max(link.from, link.to)));
    }
    for (const std::string& region : needed) {
      EXPECT_NE(shm.find(region), nullptr)
          << "seed " << seed << " step " << step << ": " << region;
      regions_ever.insert(region);
    }
    for (const std::string& region : regions_ever) {
      if (needed.contains(region)) continue;
      EXPECT_EQ(shm.find(region), nullptr)
          << "seed " << seed << " step " << step << ": leaked " << region;
    }
  }

  /// Deletes every rule, converges, and asserts the fleet wound down with
  /// nothing leaked — the "zero leaked channel regions" gate.
  void wind_down(std::uint64_t seed) {
    openflow::FlowMod del;
    del.command = openflow::FlowModCommand::kDelete;
    ASSERT_TRUE(of.handle_flow_mod(del).is_ok());
    ASSERT_TRUE(converge()) << "seed " << seed;
    EXPECT_TRUE(of.bypass_manager().links().empty()) << "seed " << seed;
    for (const std::string& region : regions_ever) {
      EXPECT_EQ(shm.find(region), nullptr)
          << "seed " << seed << ": leaked " << region;
    }
    const agent::AgentCounters& ac = agent.counters();
    EXPECT_EQ(ac.plugs, ac.unplugs) << "seed " << seed;
    EXPECT_EQ(ac.setup_failures, 0u) << "seed " << seed;
    EXPECT_EQ(ac.timeouts, 0u) << "seed " << seed;
    EXPECT_EQ(ac.ctrl_nacks, 0u) << "seed " << seed;
    // The incremental detector, not a full rescan, drove all of this.
    EXPECT_GT(of.bypass_manager().detector().counters().events, 0u);
  }
};

/// Randomized control-plane op stream shared by the strict and burst
/// variants. Tracks installed rules so deletes hit real ones.
struct ChurnDriver {
  explicit ChurnDriver(Fleet& fleet, Rng& rng) : fleet(&fleet), rng(&rng) {}

  struct TrackedRule {
    PortId from, to;
    std::uint16_t priority;
    bool diverter;
  };

  PortId random_port(bool live_only) {
    if (live_only || fleet->live.size() == fleet->of.dpdkr_ports().size() ||
        rng->chance(4, 5)) {
      return fleet->live[rng->next_below(fleet->live.size())];
    }
    const auto all = fleet->of.dpdkr_ports();  // includes retired ids
    return all[rng->next_below(all.size())];
  }

  void step() {
    const std::uint64_t roll = rng->next_below(100);
    if (roll < 55 || rules.empty()) {
      // p2p steering rule; `to` occasionally names a retired port, which
      // the eligibility predicate must filter out.
      const PortId from = random_port(/*live_only=*/true);
      PortId to = random_port(/*live_only=*/false);
      if (to == from) to = fleet->live[0] == from && fleet->live.size() > 1
                               ? fleet->live[1]
                               : fleet->live[0];
      if (to == from || fanin_full(from, to)) return;
      const auto priority =
          static_cast<std::uint16_t>(100 + 50 * rng->next_below(3));
      (void)fleet->of.handle_flow_mod(
          openflow::make_p2p_flowmod(from, to, priority, rng->next()));
      track({from, to, priority, false});
    } else if (roll < 70) {
      // Strict delete of a tracked rule.
      const std::size_t idx = rng->next_below(rules.size());
      const TrackedRule rule = rules[idx];
      rules.erase(rules.begin() + static_cast<std::ptrdiff_t>(idx));
      openflow::FlowMod mod =
          openflow::make_p2p_flowmod(rule.from, rule.to, rule.priority, 0);
      if (rule.diverter) mod.match.l4_dst(80);
      mod.command = openflow::FlowModCommand::kDeleteStrict;
      (void)fleet->of.handle_flow_mod(mod);
    } else if (roll < 82) {
      // Same-port diverter: a narrower rule at >= priority breaks the
      // p-2-p condition without changing where packets go.
      const PortId from = random_port(/*live_only=*/true);
      const PortId to = random_port(/*live_only=*/true);
      if (to == from) return;
      const auto priority =
          static_cast<std::uint16_t>(150 + 50 * rng->next_below(3));
      openflow::FlowMod mod =
          openflow::make_p2p_flowmod(from, to, priority, rng->next());
      mod.match.l4_dst(80);
      (void)fleet->of.handle_flow_mod(mod);
      track({from, to, priority, true});
    } else if (roll < 90 && fleet->live.size() > 6) {
      fleet->retire(fleet->live[rng->next_below(fleet->live.size())]);
    } else if (fleet->of.dpdkr_ports().size() < kMaxFleetPorts) {
      (void)fleet->hotplug();
    }
  }

  /// Keeps steady-state fan-in within the guest PMD's RX-ring budget:
  /// a desired-link set that exceeds it can never fully activate (the
  /// manager parks the excess), so convergence would be unreachable.
  /// Tracked distinct sources over-approximate the detector's desired
  /// sources, which keeps the cap conservative.
  [[nodiscard]] bool fanin_full(PortId from, PortId to) const {
    std::set<PortId> sources;
    for (const TrackedRule& r : rules) {
      if (!r.diverter && r.to == to && r.from != from) sources.insert(r.from);
    }
    return sources.size() >= pmd::GuestPmd::kMaxBypassRx;
  }

  void track(TrackedRule rule) {
    // An add onto an identical (match, priority) overwrites in place.
    for (const TrackedRule& existing : rules) {
      if (existing.from == rule.from && existing.to == rule.to &&
          existing.priority == rule.priority &&
          existing.diverter == rule.diverter) {
        return;
      }
    }
    rules.push_back(rule);
  }

  Fleet* fleet;
  Rng* rng;
  std::vector<TrackedRule> rules;
};

using PairSet = std::set<std::pair<PortId, PortId>>;

PairSet pairs_of(const std::vector<P2pLink>& links) {
  PairSet pairs;
  for (const P2pLink& link : links) pairs.insert({link.from, link.to});
  return pairs;
}

class BypassChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

/// STRICT ORACLE: one op per step, converge, compare against ground truth
/// — including exact completed-setup/teardown counts derived from the
/// per-step link-set diffs (the sum over links of each link's
/// activate/deactivate transitions).
TEST_P(BypassChurnTest, ConvergedStateMatchesDetectorGroundTruth) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Fleet fleet;
  for (int i = 0; i < 10; ++i) (void)fleet.hotplug();
  ASSERT_TRUE(fleet.converge());

  ChurnDriver driver(fleet, rng);
  PairSet prev;
  std::uint64_t expected_setups = 0;
  std::uint64_t expected_teardowns = 0;
  for (int step = 0; step < 120; ++step) {
    driver.step();
    ASSERT_TRUE(fleet.converge()) << "seed " << seed << " step " << step;
    const std::vector<P2pLink> truth = fleet.ground_truth();
    fleet.check_converged(truth, seed, step);
    if (::testing::Test::HasFatalFailure()) return;

    const PairSet now = pairs_of(truth);
    for (const auto& pair : now) {
      if (!prev.contains(pair)) ++expected_setups;
    }
    for (const auto& pair : prev) {
      if (!now.contains(pair)) ++expected_teardowns;
    }
    prev = now;
    const BypassCounters& counters = fleet.of.bypass_manager().counters();
    ASSERT_EQ(counters.setups_completed, expected_setups)
        << "seed " << seed << " step " << step;
    ASSERT_EQ(counters.teardowns_completed, expected_teardowns)
        << "seed " << seed << " step " << step;
    ASSERT_EQ(counters.setups_failed, 0u)
        << "seed " << seed << " step " << step;
  }
  fleet.wind_down(seed);
}

/// BURST: ops land while previous setups/teardowns are still in flight;
/// the manager may cancel, defer on the in-flight cap, or park behind a
/// tearing-down region — but every convergence point must still equal the
/// ground truth, and the fleet must wind down leak-free.
TEST_P(BypassChurnTest, InterleavedBurstsConvergeAndNeverLeak) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xb1a5ULL);
  Fleet fleet;
  for (int i = 0; i < 10; ++i) (void)fleet.hotplug();
  ASSERT_TRUE(fleet.converge());

  ChurnDriver driver(fleet, rng);
  for (int step = 0; step < 50; ++step) {
    const std::uint64_t ops = 1 + rng.next_below(6);
    for (std::uint64_t i = 0; i < ops; ++i) {
      driver.step();
      // Let the protocol advance partway so the next op races it.
      if (rng.chance(1, 2)) {
        fleet.runtime.run_for(static_cast<TimeNs>(rng.next_below(40'000)));
      }
    }
    if (rng.chance(1, 3)) {
      ASSERT_TRUE(fleet.converge()) << "seed " << seed << " step " << step;
      fleet.check_converged(fleet.ground_truth(), seed, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ASSERT_TRUE(fleet.converge()) << "seed " << seed;
  fleet.check_converged(fleet.ground_truth(), seed, -1);
  fleet.wind_down(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BypassChurnTest,
    ::testing::Values(0xc001, 0xc002, 0xc003, 0xc004, 0xc005, 0xc006),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      char name[32];
      std::snprintf(name, sizeof(name), "seed_%llx",
                    static_cast<unsigned long long>(info.param));
      return std::string(name);
    });

}  // namespace
}  // namespace hw::vswitch

// ---------------------------------------------------------------------
// Traffic under churn: packet conservation across bypass <-> fallback.
// ---------------------------------------------------------------------

namespace hw::chain {
namespace {

/// A middle hop's bypass is repeatedly broken and re-established by a
/// same-output diverter rule while paced traffic flows. Because both
/// rules output to the same port, delivery is always defined — so ANY
/// missing packet at the end means a frame was served into a stale
/// (detached) channel or dropped in a bypass <-> fallback transition.
TEST(BypassChurnTraffic, NoPacketLostAcrossBypassFlips) {
  set_log_level(LogLevel::kError);
  ChainConfig config;
  config.vm_count = 3;
  config.enable_bypass = true;
  config.bidirectional = true;
  config.gen_rate_pps = 500'000;  // below saturation: no ring-full losses
  config.hotplug = agent::HotplugLatencyModel::instant();
  ChainScenario chain(config);
  ASSERT_TRUE(chain.build().is_ok());
  ASSERT_TRUE(chain.wait_bypass_ready());
  chain.warmup(2'000'000);

  const PortId hop_from = chain.right_port(1);
  const PortId hop_to = chain.left_port(2);
  vswitch::BypassManager& mgr = chain.of().bypass_manager();
  ASSERT_TRUE(mgr.link_active(hop_from, hop_to));

  openflow::FlowMod diverter =
      openflow::make_p2p_flowmod(hop_from, hop_to, 300, 777);
  diverter.match.l4_dst(80);  // narrower match, same output port

  constexpr int kFlips = 6;
  for (int flip = 0; flip < kFlips; ++flip) {
    ASSERT_TRUE(chain.send_flow_mod(diverter).is_ok());
    ASSERT_TRUE(chain.runtime().run_until(
        [&] { return !mgr.link_active(hop_from, hop_to); }, 100'000'000))
        << "flip " << flip << ": bypass never fell back";
    chain.warmup(3'000'000);  // traffic rides the fallback path

    openflow::FlowMod remove = diverter;
    remove.command = openflow::FlowModCommand::kDeleteStrict;
    ASSERT_TRUE(chain.send_flow_mod(remove).is_ok());
    ASSERT_TRUE(chain.runtime().run_until(
        [&] { return mgr.link_active(hop_from, hop_to); }, 100'000'000))
        << "flip " << flip << ": bypass never re-established";
    chain.warmup(3'000'000);  // traffic rides the re-plugged bypass
  }

  // Conservation: everything generated was delivered, nothing is stuck.
  ASSERT_TRUE(chain.drain());
  const vm::AppCounters& head = chain.head_endpoint()->counters();
  const vm::AppCounters& tail = chain.tail_endpoint()->counters();
  EXPECT_EQ(tail.delivered, head.generated)
      << "forward packets lost across bypass flips";
  EXPECT_EQ(head.delivered, tail.generated)
      << "reverse packets lost across bypass flips";
  EXPECT_EQ(head.tx_drops + tail.tx_drops, 0u);

  // The flips genuinely exercised teardown + re-setup on a live link.
  const agent::AgentCounters& ac = chain.agent().counters();
  EXPECT_GE(ac.teardowns, static_cast<std::uint64_t>(kFlips));
  EXPECT_GE(ac.setups_ok, chain.expected_links() + kFlips);
  EXPECT_EQ(ac.setup_failures, 0u);
  EXPECT_EQ(ac.timeouts, 0u);
}

}  // namespace
}  // namespace hw::chain
