#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "exec/runtime.h"
#include "pmd/channel.h"
#include "pmd/control.h"
#include "shm/shm.h"
#include "vswitch/bypass_manager.h"

/// \file compute_agent.h
/// The *modified compute agent* of the paper: the external component the
/// vSwitch relies on because "OvS does not know which VM is attached to a
/// specific port". On a bypass-setup request it (i) hot-plugs the bypass
/// region into both VMs as an ivshmem device via QEMU, and (ii) configures
/// the two PMD instances over their virtio-serial control channels — RX
/// side first, so no frame is ever written into an unpolled ring. Teardown
/// runs the reverse, quiescing the TX side and draining the ring before
/// detaching RX, so no in-flight packet is lost.
///
/// Each request becomes one op that walks a fixed step list
/// (kSetupSteps, kTeardownSteps), one step per poll, once the request
/// has crossed the OVS→agent socket. A control step arms after the
/// virtio-serial latency, sends its command and completes only on the
/// ack from the port it sent to, carrying the seq it sent; any other
/// ack is dropped.
///
/// Latencies of the QEMU/guest operations are modeled explicitly by
/// HotplugLatencyModel; their sum is the ~100 ms setup time the paper
/// reports (§3).

namespace hw::agent {

struct HotplugLatencyModel {
  TimeNs request_rtt_ns = 200'000;       ///< OVS→agent unix-socket RTT
  TimeNs qemu_plug_ns = 25'000'000;      ///< QEMU monitor ivshmem device_add
  TimeNs pci_scan_ns = 22'000'000;       ///< guest PCI rescan + driver probe
  TimeNs serial_rtt_ns = 2'000'000;      ///< virtio-serial command latency
  TimeNs qemu_unplug_ns = 5'000'000;     ///< QEMU monitor device_del

  /// Expected end-to-end first-direction setup latency (both VMs plugged
  /// sequentially, then both PMDs configured in turn).
  [[nodiscard]] TimeNs expected_setup_ns() const noexcept {
    return request_rtt_ns + 2 * (qemu_plug_ns + pci_scan_ns) +
           2 * serial_rtt_ns;
  }

  /// Zero-latency model for tests that exercise only the protocol.
  [[nodiscard]] static HotplugLatencyModel instant() noexcept {
    return HotplugLatencyModel{0, 0, 0, 0, 0};
  }
};

struct AgentCounters {
  std::uint64_t setups = 0;
  std::uint64_t setups_ok = 0;
  std::uint64_t setup_failures = 0;
  std::uint64_t teardowns = 0;
  std::uint64_t plugs = 0;
  std::uint64_t unplugs = 0;
  std::uint64_t ctrl_sent = 0;
  std::uint64_t ctrl_nacks = 0;
  std::uint64_t drain_retries = 0;
  std::uint64_t timeouts = 0;
};

class ComputeAgent final : public exec::Context,
                           public vswitch::AgentInterface {
 public:
  /// Per-op deadline (virtual time, from the request's arrival): an
  /// expired setup fails, an expired teardown completes forcibly.
  static constexpr TimeNs kOpTimeoutNs = 2'000'000'000;

  ComputeAgent(shm::ShmManager& shm, exec::Runtime& runtime,
               HotplugLatencyModel latency = {});

  /// Completion callbacks target (the switch's BypassManager).
  void set_event_sink(vswitch::BypassEventSink* sink) noexcept {
    sink_ = sink;
  }

  /// Hypervisor registration: which VM owns which dpdkr port.
  void register_port(PortId port, VmId vm);

  // vswitch::AgentInterface:
  void request_bypass_setup(
      const vswitch::BypassSetupRequest& request) override;
  void request_bypass_teardown(
      const vswitch::BypassTeardownRequest& request) override;

  // exec::Context:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "agent";
  }
  /// Advances every op one step; returns the number of ops finished.
  std::uint32_t poll(exec::CycleMeter& meter) override;

  [[nodiscard]] const AgentCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const HotplugLatencyModel& latency() const noexcept {
    return latency_;
  }
  [[nodiscard]] std::size_t inflight_ops() const noexcept {
    return ops_.size();
  }

 private:
  enum class StepKind : std::uint8_t {
    kPlugged,    ///< the region is plugged into both VMs
    kCtrl,       ///< one command to one guest PMD, answered
    kDrained,    ///< the bypass ring is empty
    kUnplugged,  ///< the region is unplugged from both VMs
  };
  struct Step {
    StepKind kind;
    pmd::CtrlOp op;  ///< kCtrl: the command
    bool rx_side;    ///< kCtrl: sent to the RX PMD (`to`), else to `from`
  };
  /// RX before TX, so no frame is ever written into an unpolled ring.
  static constexpr Step kSetupSteps[] = {
      {StepKind::kPlugged, pmd::CtrlOp::kNop, false},
      {StepKind::kCtrl, pmd::CtrlOp::kAttachBypassRx, true},
      {StepKind::kCtrl, pmd::CtrlOp::kAttachBypassTx, false},
  };
  /// TX quiesced and the ring drained before RX lets go, so no frame in
  /// flight is lost. Only the pair's last direction (`unplug_after`)
  /// takes the unplug step.
  static constexpr Step kTeardownSteps[] = {
      {StepKind::kCtrl, pmd::CtrlOp::kDetachBypassTx, false},
      {StepKind::kDrained, pmd::CtrlOp::kNop, false},
      {StepKind::kCtrl, pmd::CtrlOp::kDetachBypassRx, true},
      {StepKind::kUnplugged, pmd::CtrlOp::kNop, false},
  };

  /// Where the op's current step stands. A control step goes kIdle →
  /// kArming (serial latency) → kArmed → kAwaiting (sent) → kDone (acked)
  /// or kNacked; the unplug step goes kIdle → kArming (QEMU) → kDone.
  enum class Phase : std::uint8_t {
    kIdle, kArming, kArmed, kAwaiting, kDone, kNacked
  };
  struct Op {
    bool teardown = false;
    PortId from = kPortNone;
    PortId to = kPortNone;
    std::string region;
    std::uint64_t epoch = 0;
    std::uint32_t rule_slot = 0;
    /// Setup: plug the region into both VMs first. Teardown: unplug it
    /// from both at the end (the last direction of the pair).
    bool hotplug = false;
    VmId vm_from = 0;
    VmId vm_to = 0;
    std::span<const Step> steps;
    std::size_t step = 0;   ///< index into steps
    Phase phase = Phase::kIdle;
    std::uint16_t seq = 0;  ///< the current control step's command
    TimeNs deadline = 0;    ///< 0 until the request arrives
    bool failed = false;
  };
  /// (teardown?, request number): map order walks setups before
  /// teardowns, each in request order.
  using OpKey = std::pair<bool, std::uint64_t>;

  void start(Op op);
  /// The request reached the agent: stamp the deadline, start plugging.
  void arrive(const OpKey& key);
  /// Runs `fn` on the op `delay_ns` from now, unless it finished first.
  void at(const OpKey& key, TimeNs delay_ns, std::function<void(Op&)> fn);
  /// Takes one step of the op; returns true when the op finished.
  bool advance(const OpKey& key, Op& op);
  /// Arms, sends and awaits the current control step's command; returns
  /// true once it is answered (op.phase says how).
  bool exchange(const OpKey& key, Op& op);
  void finish(const Op& op);
  void plug(const Op& op, VmId vm);
  void unplug_both(const Op& op);

  [[nodiscard]] pmd::ControlChannel* control_for(PortId port);
  bool send_ctrl(PortId port, const pmd::CtrlMsg& msg);
  /// Hands each ack on the ops' ports to the op awaiting its port and
  /// seq; drops the rest.
  void collect_acks();
  [[nodiscard]] bool region_ring_empty(const Op& op);

  shm::ShmManager* shm_;
  exec::Runtime* runtime_;
  HotplugLatencyModel latency_;
  vswitch::BypassEventSink* sink_ = nullptr;

  std::unordered_map<PortId, VmId> port_vm_;
  std::unordered_map<PortId, pmd::ControlChannel> ctrl_cache_;
  std::map<OpKey, Op> ops_;
  /// Scratch for collect_acks(): ports referenced by in-flight ops this
  /// poll (kept as a member so the per-poll allocation amortizes away).
  std::vector<PortId> watch_ports_;
  std::uint64_t next_op_ = 1;
  std::uint16_t next_seq_ = 1;
  AgentCounters counters_;
};

}  // namespace hw::agent
