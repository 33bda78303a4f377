#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "pmd/shared_stats.h"
#include "shm/shm.h"
#include "telemetry/trace.h"
#include "vswitch/p2p_detector.h"

namespace hw::exec {
class Runtime;
}

/// \file bypass_manager.h
/// Owns the lifecycle of bypass channels: reacts to detector output,
/// creates/destroys the shared-memory channel regions, drives the compute
/// agent, and keeps OpenFlow statistics truthful across transitions.
///
/// A *bidirectional pair of ports* shares one channel region ("a new pair
/// of dpdkr bypass channels mapped on the same piece of memory"): the
/// first direction to be detected creates and hot-plugs the region; the
/// second direction only reconfigures PMDs. Teardown is per-direction; the
/// region is unplugged and destroyed when its last direction deactivates.
///
/// Fleet scale (docs/BYPASS.md): the manager subscribes to the table's
/// TableChangeEvent stream and feeds an IncrementalP2pDetector, so a
/// FlowMod re-evaluates only the ports it could affect and the reconcile
/// walks only those ports — O(event) instead of O(ports × rules). Setup
/// concurrency is bounded by `max_inflight_ops`; links that cannot start
/// yet (cap reached, or their channel region is still held by a
/// tearing-down sibling direction) park in a retry set that drains on
/// every agent completion. Teardowns are never deferred: a stale link
/// must leave the datapath as fast as the agent can quiesce it.

namespace hw::vswitch {

/// What the manager asks of the compute agent. All calls are asynchronous:
/// the agent answers through BypassEventSink.
struct BypassSetupRequest {
  PortId from = kPortNone;
  PortId to = kPortNone;
  std::string region;        ///< channel region (already created + init'd)
  std::uint64_t epoch = 0;   ///< channel epoch for stale-mapping detection
  std::uint32_t rule_slot = 0;  ///< shared-stats slot for the rule
  bool plug_required = false;   ///< first direction: hot-plug into both VMs
};

struct BypassTeardownRequest {
  PortId from = kPortNone;
  PortId to = kPortNone;
  std::string region;
  bool unplug_after = false;  ///< last direction: unplug + allow destroy
};

class AgentInterface {
 public:
  virtual ~AgentInterface() = default;
  virtual void request_bypass_setup(const BypassSetupRequest& request) = 0;
  virtual void request_bypass_teardown(
      const BypassTeardownRequest& request) = 0;
};

/// Completion callbacks, invoked by the agent.
class BypassEventSink {
 public:
  virtual ~BypassEventSink() = default;
  virtual void on_bypass_ready(PortId from, PortId to, bool ok) = 0;
  virtual void on_bypass_torn_down(PortId from, PortId to) = 0;
};

enum class LinkState : std::uint8_t {
  kSettingUp,
  kActive,
  kTearingDown,
};

struct LinkInfo {
  P2pLink link;
  LinkState state = LinkState::kSettingUp;
  std::uint32_t rule_slot = 0;
  std::string region;
  /// Set when the link stopped being desired while setup was in flight;
  /// triggers teardown as soon as setup completes.
  bool cancel_after_setup = false;
  /// Virtual times the async transitions were requested — the begin
  /// timestamps of the bypass_setup / bypass_teardown trace spans
  /// recorded when the agent's completion lands.
  TimeNs setup_requested_ns = 0;
  TimeNs teardown_requested_ns = 0;
};

struct BypassManagerConfig {
  std::size_t ring_capacity = 1024;
  /// Max setup/teardown operations in flight at the agent; further
  /// *setups* park in the retry set until a completion frees a slot
  /// (teardowns always go through — a stale link must come down now).
  /// 0 = unbounded.
  std::size_t max_inflight_ops = 64;
};

struct BypassCounters {
  std::uint64_t setups_requested = 0;
  std::uint64_t setups_completed = 0;
  std::uint64_t setups_failed = 0;
  std::uint64_t teardowns_requested = 0;
  std::uint64_t teardowns_completed = 0;
  /// Desired links parked because the agent already has
  /// `max_inflight_ops` operations in flight.
  std::uint64_t setups_deferred_inflight = 0;
  /// Desired links parked because the pair's channel region is still
  /// held by a sibling direction in kTearingDown — starting now could
  /// attach a region about to be unplugged and destroyed (the
  /// region-destroy race this fence exists to prevent).
  std::uint64_t setups_deferred_region = 0;
  /// Desired links parked because the destination port already has
  /// pmd::GuestPmd::kMaxBypassRx inbound links — the guest PMD would NACK
  /// the RX attach and the link would be lost instead of retried.
  std::uint64_t setups_deferred_fanin = 0;
};

class BypassManager final : public BypassEventSink {
 public:
  BypassManager(shm::ShmManager& shm, flowtable::FlowTable& table,
                pmd::SharedStats stats, IncrementalP2pDetector detector,
                BypassManagerConfig config);
  ~BypassManager() override;

  BypassManager(const BypassManager&) = delete;
  BypassManager& operator=(const BypassManager&) = delete;

  void set_agent(AgentInterface* agent) noexcept { agent_ = agent; }

  /// Enables lifecycle spans (setup request → ACTIVE, teardown request →
  /// torn down) on display row `track`.
  void configure_trace(telemetry::Tracer* tracer, const exec::Runtime* clock,
                       std::uint16_t track) noexcept {
    tracer_ = tracer;
    trace_clock_ = tracer != nullptr ? clock : nullptr;
    trace_track_ = track;
  }

  /// Registers a dpdkr port as a candidate bypass endpoint.
  void add_candidate_port(PortId port);

  /// Unregisters a candidate endpoint (VM removal): its own link tears
  /// down, and links *targeting* it follow at the next eligibility-aware
  /// reconcile (OfSwitch flips the port's eligibility before calling).
  void remove_candidate_port(PortId port);

  /// Re-reconciles after a change the table event stream cannot see
  /// (port eligibility flips: retire / enable / disable).
  void invalidate_eligibility();

  /// Reconciles link state against the detector (which has been fed
  /// incrementally from the table's change events). Called by OfSwitch
  /// after every FlowMod and by completion callbacks.
  void on_table_change();

  // BypassEventSink:
  void on_bypass_ready(PortId from, PortId to, bool ok) override;
  void on_bypass_torn_down(PortId from, PortId to) override;

  /// Bypassed (packets, bytes) to merge into a rule's OpenFlow counters.
  /// O(1) via the rule → link index.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> rule_extra(
      RuleId rule) const noexcept;

  [[nodiscard]] std::size_t active_links() const noexcept;
  [[nodiscard]] std::size_t pending_links() const noexcept;
  /// Desired links currently parked in the retry set (deferred setups).
  [[nodiscard]] std::size_t deferred_links() const noexcept {
    return retry_ports_.size();
  }
  [[nodiscard]] std::size_t inflight_ops() const noexcept {
    return inflight_ops_;
  }
  [[nodiscard]] bool link_active(PortId from, PortId to) const noexcept;
  [[nodiscard]] const BypassCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<PortId, LinkInfo>& links() const noexcept {
    return links_;
  }
  [[nodiscard]] const IncrementalP2pDetector& detector() const noexcept {
    return detector_;
  }

 private:
  void reconcile_port(PortId from);
  void initiate_setup(const P2pLink& link);
  void initiate_teardown(LinkInfo& info);
  void fold_and_release_slot(LinkInfo& info);
  void drop_rule_binding(const LinkInfo& info) noexcept;
  [[nodiscard]] std::optional<std::uint32_t> alloc_slot() noexcept;
  [[nodiscard]] bool at_inflight_cap() const noexcept {
    return config_.max_inflight_ops != 0 &&
           inflight_ops_ >= config_.max_inflight_ops;
  }
  /// True when the reverse direction of `link`'s pair is mid-teardown
  /// (it owns the shared region's unplug/destroy).
  [[nodiscard]] bool region_tearing_down(const P2pLink& link) const noexcept;
  /// True when `link.to` already holds pmd::GuestPmd::kMaxBypassRx
  /// inbound links (the guest datapath's RX-ring budget) in any state —
  /// even a kTearingDown link still occupies its RX ring at the guest PMD
  /// until the teardown completes, so a new attach racing that detach
  /// would be NACKed. Excess setups park in the retry set until an
  /// inbound teardown frees a slot.
  [[nodiscard]] bool at_rx_fanin_cap(const P2pLink& link) const noexcept;
  /// Directions (this or reverse) currently holding the region.
  [[nodiscard]] std::size_t region_users(const std::string& region) const;

  /// Records an async lifecycle span ending now. No-op when tracing is
  /// unconfigured or the begin timestamp was never stamped.
  void record_span(const char* name, TimeNs begin_ns, PortId from,
                   PortId to) noexcept;

  shm::ShmManager* shm_;
  flowtable::FlowTable* table_;
  pmd::SharedStats stats_;
  IncrementalP2pDetector detector_;
  BypassManagerConfig config_;
  AgentInterface* agent_ = nullptr;
  telemetry::Tracer* tracer_ = nullptr;
  const exec::Runtime* trace_clock_ = nullptr;
  std::uint16_t trace_track_ = 0;

  std::map<PortId, LinkInfo> links_;  ///< keyed by `from` port
  /// rule id → `from` port of the link whose shared-stats slot counts
  /// that rule's bypassed traffic (flow_stats merges are O(1)).
  std::unordered_map<RuleId, PortId> rule_index_;
  /// Desired links that could not start yet; reprocessed on every agent
  /// completion and table change.
  std::set<PortId> retry_ports_;
  std::vector<bool> slot_used_ = std::vector<bool>(pmd::kStatsMaxRules);
  std::uint64_t table_token_ = 0;
  std::uint64_t next_epoch_ = 1;
  std::size_t inflight_ops_ = 0;
  bool reconcile_pending_ = false;
  bool in_reconcile_ = false;
  BypassCounters counters_;
};

}  // namespace hw::vswitch
