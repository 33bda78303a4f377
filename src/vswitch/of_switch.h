#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/runtime.h"
#include "flowtable/flow_table.h"
#include "mbuf/mempool.h"
#include "openflow/codec.h"
#include "openflow/messages.h"
#include "pmd/shared_stats.h"
#include "shm/shm.h"
#include "vswitch/bypass_manager.h"
#include "vswitch/forwarding_engine.h"
#include "vswitch/switch_port.h"

/// \file of_switch.h
/// The modified Open vSwitch: OpenFlow endpoint + flow table + forwarding
/// engines (PMD contexts) + the p-2-p link detector and bypass manager.
///
/// Transparency guarantees implemented here:
///  * controllers talk the ordinary wire protocol (handle_message) and see
///    ordinary ports — normal and bypass channels are never exposed;
///  * flow and port statistics merge the shared-memory counters written by
///    PMDs, so bypassed traffic is reported exactly as if the switch had
///    forwarded it;
///  * packet-out works on bypassed ports (delivered via the normal
///    channel, which PMDs always poll).

namespace hw::vswitch {

struct SwitchConfig {
  std::size_t ring_capacity = 1024;  ///< normal + bypass channel rings
  std::uint32_t engine_count = 1;    ///< PMD threads (OVS pmd-cpu-mask)
  /// RSS-style rx sharding across the engine pool: each port's *home*
  /// engine distributes frames by 5-tuple hash through a per-switch
  /// indirection table, so one port's flows spread over many engines
  /// (docs/SCALEOUT.md). Ignored when engine_count <= 1.
  RssConfig rss{};
  bool bypass_enabled = true;        ///< false = vanilla OVS-DPDK baseline
  /// Max bypass setup/teardown operations in flight at the compute agent;
  /// further setups park until a completion frees a slot (docs/BYPASS.md
  /// "fleet knobs"). 0 = unbounded.
  std::size_t bypass_max_inflight = 64;
  /// Span recorder (not owned; null = tracing off). One track per
  /// engine plus a "ctrl" track for FlowMods and bypass lifecycle.
  /// SimRuntime scenarios only — the tracer is not thread-safe.
  telemetry::Tracer* tracer = nullptr;
};

struct SwitchCounters {
  std::uint64_t flow_mods = 0;
  std::uint64_t packet_outs = 0;
  std::uint64_t packet_out_failures = 0;
  std::uint64_t messages = 0;
  std::uint64_t message_errors = 0;
};

class OfSwitch {
 public:
  OfSwitch(shm::ShmManager& shm, mbuf::Mempool& pool, exec::Runtime& runtime,
           const exec::CostModel& cost, SwitchConfig config);

  OfSwitch(const OfSwitch&) = delete;
  OfSwitch& operator=(const OfSwitch&) = delete;

  // ----------------------------------------------------------- ports
  /// Creates a dpdkr port: shared-memory normal channel + control channel
  /// regions, switch-side endpoint, engine assignment. Returns the port id.
  [[nodiscard]] Result<PortId> add_dpdkr_port(const std::string& name);

  /// Attaches a simulated NIC as a physical port.
  [[nodiscard]] Result<PortId> add_phy_port(const std::string& name,
                                            nic::SimNic& nic);

  [[nodiscard]] Status set_port_enabled(PortId port, bool enabled);

  /// VM removal: disables the port, withdraws it as a bypass endpoint
  /// (its link and any link targeting it tear down through the agent),
  /// and leaves a tombstone — engines may still hold the SwitchPort, so
  /// the object stays alive and the id is never reused; traffic to a
  /// retired port drops at flush like any disabled port.
  [[nodiscard]] Status retire_dpdkr_port(PortId port);

  [[nodiscard]] SwitchPort* port(PortId id) noexcept;
  [[nodiscard]] bool is_dpdkr(PortId id) const noexcept;
  /// Bypass-endpoint eligibility: a live (enabled, non-retired) dpdkr
  /// port. The detector must not steer traffic into a port the engines
  /// would have dropped it on — that would break transparency.
  [[nodiscard]] bool is_bypass_eligible(PortId id) const noexcept;
  [[nodiscard]] std::vector<PortId> dpdkr_ports() const;

  // ------------------------------------------------- OpenFlow control
  [[nodiscard]] Status handle_flow_mod(const openflow::FlowMod& mod);
  [[nodiscard]] Status handle_packet_out(const openflow::PacketOut& po);
  [[nodiscard]] std::vector<openflow::FlowStatsEntry> flow_stats() const;
  [[nodiscard]] Result<openflow::PortStats> port_stats(PortId id) const;

  /// Per-tier classification counters summed over every forwarding
  /// engine — the switch-level view of where lookups are resolved
  /// (EMC / megaflow / slow path), reported next to flow and port stats.
  [[nodiscard]] classifier::TierCounters datapath_stats() const;

  /// Wire-protocol endpoint: decodes one message, executes it, returns the
  /// encoded reply (empty vector when the message has no reply).
  [[nodiscard]] Result<std::vector<std::byte>> handle_message(
      std::span<const std::byte> data);

  // --------------------------------------------------------- plumbing
  /// PMD contexts to register with a Runtime.
  [[nodiscard]] std::vector<exec::Context*> engine_contexts();
  [[nodiscard]] std::span<const std::unique_ptr<ForwardingEngine>> engines()
      const noexcept {
    return engines_;
  }
  [[nodiscard]] BypassManager& bypass_manager() noexcept { return *bypass_; }
  [[nodiscard]] flowtable::FlowTable& table() noexcept { return table_; }
  /// The RSS sharder (indirection table + auto-load-balancer); null when
  /// sharding is off or the pool has a single engine.
  [[nodiscard]] RssSharder* rss() noexcept { return sharder_.get(); }
  [[nodiscard]] const RssSharder* rss() const noexcept {
    return sharder_.get();
  }
  /// Rebalancer telemetry (zeros when sharding is off).
  [[nodiscard]] RssStats rss_stats() const noexcept {
    return sharder_ != nullptr ? sharder_->stats() : RssStats{};
  }
  [[nodiscard]] pmd::SharedStats shared_stats() const noexcept {
    return shared_stats_;
  }
  [[nodiscard]] const SwitchCounters& counters() const noexcept {
    return counters_;
  }

 private:
  /// Registers `port` with every engine and hooks up its rx path: the
  /// direct home-engine assignment, or the RSS distributor + per-engine
  /// queue mesh when sharding is on.
  void wire_port(SwitchPort* port);

  shm::ShmManager* shm_;
  mbuf::Mempool* pool_;
  exec::Runtime* runtime_;
  /// Owned copy, not a pointer: callers routinely pass a temporary
  /// `CostModel{}`, and the engines (running on other threads under
  /// ThreadedRuntime) keep pointers into this for the switch's lifetime —
  /// a stored reference would dangle the moment the ctor returns (found
  /// by TSan as a cross-thread read of dead stack memory).
  exec::CostModel cost_;
  SwitchConfig config_;

  flowtable::FlowTable table_;
  pmd::SharedStats shared_stats_;
  std::vector<std::unique_ptr<SwitchPort>> ports_;  // index = id - 1
  std::vector<std::unique_ptr<ForwardingEngine>> engines_;
  std::unique_ptr<RssSharder> sharder_;  ///< null = sharding off
  /// Per-(port, engine) rx queues the distributors fill (owned here so
  /// producer and consumer engines outlive neither end).
  std::vector<std::unique_ptr<ring::OwnedSpscRing<mbuf::Mbuf*>>> rss_queues_;
  std::unique_ptr<BypassManager> bypass_;
  PortId next_port_ = 1;
  SwitchCounters counters_;
  std::uint16_t ctrl_track_ = 0;  ///< tracer row for control-plane spans
};

}  // namespace hw::vswitch
