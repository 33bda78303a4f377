#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "mbuf/mbuf.h"
#include "pmd/channel.h"
#include "pmd/control.h"
#include "pmd/shared_stats.h"
#include "shm/shm.h"

/// \file guest_pmd.h
/// The *modified* dpdkr poll-mode driver running inside a VM.
///
/// One GuestPmd instance drives one dpdkr port. From the application's
/// point of view it is an ordinary port with rx_burst/tx_burst; internally
/// it multiplexes:
///   * the normal channel — rings to the vSwitch forwarding engine, always
///     present, always polled (so OpenFlow packet-out keeps arriving);
///   * zero or more bypass RX channels — rings written directly by peer
///     VMs;
///   * at most one bypass TX channel — the ring of the active p-2-p link
///     whose catch-all rule steers everything this port emits.
/// The compute agent reconfigures these at run time over the virtio-serial
/// control channel; every command is acknowledged. When transmitting on
/// the bypass, the PMD accounts packets/bytes against the OpenFlow rule
/// and ports in the shared statistics memory, keeping the switch's
/// OpenFlow statistics truthful for traffic it never forwards.
///
/// With INT hop-stamping enabled (configure_int), the PMD appends one
/// pkt::IntHopRecord per transmitted frame (ingress time + tx queue
/// depth) and completes the newest record with the egress time when the
/// frame is received on the far side — so one record measures one link
/// transit, switch fabric included, which is exactly the latency the
/// bypass channel collapses. Stamping happens before byte accounting, so
/// every byte counter (shared stats, port stats, sink) consistently
/// includes the trailer.

namespace hw::exec {
class Runtime;
}

namespace hw::pmd {

struct PmdCounters {
  std::uint64_t rx_normal = 0;
  std::uint64_t rx_bypass = 0;
  std::uint64_t tx_normal = 0;
  std::uint64_t tx_bypass = 0;
  std::uint64_t tx_rejected = 0;   ///< destination ring full (both paths)
  std::uint64_t ctrl_cmds = 0;
  std::uint64_t ctrl_errors = 0;
};

class GuestPmd {
 public:
  /// Maximum simultaneous bypass RX sources (multiple upstream p-2-p
  /// links may terminate at the same port).
  static constexpr std::size_t kMaxBypassRx = 4;

  /// Attaches to an already-plugged normal channel + control channel.
  /// `stats` is the host-wide shared statistics view (plugged at VM boot).
  [[nodiscard]] static Result<GuestPmd> attach(shm::ShmManager& shm, VmId vm,
                                               PortId port,
                                               SharedStats stats,
                                               const exec::CostModel& cost);

  GuestPmd(GuestPmd&&) = default;
  GuestPmd& operator=(GuestPmd&&) = default;

  [[nodiscard]] PortId port() const noexcept { return port_; }
  [[nodiscard]] VmId vm() const noexcept { return vm_; }

  /// Receives up to out.size() frames. The normal channel is polled first
  /// and unconditionally — controller packet-out frames and in-flight
  /// frames from before a bypass activation must be delivered even when
  /// the bypass is saturated — then the bypass channels fill the rest.
  std::uint16_t rx_burst(std::span<mbuf::Mbuf*> out,
                         exec::CycleMeter& meter) noexcept;

  /// Transmits the burst through the bypass channel when one is active,
  /// otherwise through the normal channel. Returns frames accepted; the
  /// caller retains ownership of the rest (typically frees them).
  std::uint16_t tx_burst(std::span<mbuf::Mbuf* const> pkts,
                         exec::CycleMeter& meter) noexcept;

  /// Enables INT hop-stamping using `clock` for virtual timestamps
  /// (null disables). SimRuntime scenarios only: the egress stamp is
  /// written into a frame already sitting in the ring, which is safe
  /// under the lock-step driver but racy under real threads.
  void configure_int(const exec::Runtime* clock) noexcept {
    int_clock_ = clock;
  }

  /// Drains the agent command ring and applies reconfigurations. Called
  /// automatically every kCtrlPollInterval rx_bursts; exposed for tests
  /// and for apps that want immediate reconfiguration.
  std::uint32_t process_control(exec::CycleMeter& meter);

  [[nodiscard]] bool bypass_tx_active() const noexcept {
    return bypass_tx_ring_ != nullptr;
  }
  [[nodiscard]] std::size_t bypass_rx_count() const noexcept {
    return bypass_rx_count_;
  }
  [[nodiscard]] const PmdCounters& counters() const noexcept {
    return counters_;
  }

  static constexpr std::uint32_t kCtrlPollInterval = 64;

 private:
  GuestPmd() = default;

  void handle_ctrl(const CtrlMsg& msg);
  /// Maps the bypass region an attach names (checking its epoch) and
  /// returns the ring `writer` transmits into; nullptr if either fails.
  [[nodiscard]] MbufRing* map_bypass_ring(const CtrlMsg& msg,
                                          PortId writer);
  void send_ack(const CtrlMsg& cmd, bool ok);

  /// Stamps every accepted frame of a tx burst (called after enqueue;
  /// the pointers are still ours to write through under SimRuntime).
  void int_stamp_burst(std::span<mbuf::Mbuf* const> pkts,
                       std::size_t accepted, std::size_t queue_depth,
                       exec::CycleMeter& meter) noexcept;

  shm::ShmManager* shm_ = nullptr;
  VmId vm_ = 0;
  PortId port_ = kPortNone;
  const exec::CostModel* cost_ = nullptr;
  const exec::Runtime* int_clock_ = nullptr;

  ChannelView normal_;        ///< a2b = switch→VM, b2a = VM→switch
  ControlChannel ctrl_;
  SharedStats stats_;

  // Bypass TX state (at most one active p-2-p link out of this port).
  MbufRing* bypass_tx_ring_ = nullptr;
  PortId bypass_tx_peer_ = kPortNone;
  std::uint32_t bypass_tx_slot_ = kStatsSlotNone;
  std::array<char, kCtrlRegionNameLen> bypass_tx_region_{};

  // Bypass RX state.
  struct BypassRx {
    MbufRing* ring = nullptr;
    std::array<char, kCtrlRegionNameLen> region{};
  };
  std::array<BypassRx, kMaxBypassRx> bypass_rx_{};
  std::size_t bypass_rx_count_ = 0;

  std::uint32_t rx_calls_since_ctrl_ = 0;
  PmdCounters counters_;
};

}  // namespace hw::pmd
