#include "pmd/guest_pmd.h"

#include <cstring>

#include "common/log.h"
#include "exec/runtime.h"
#include "pkt/int_stamp.h"

namespace hw::pmd {

Result<GuestPmd> GuestPmd::attach(shm::ShmManager& shm, VmId vm, PortId port,
                                  SharedStats stats,
                                  const exec::CostModel& cost) {
  GuestPmd pmd;
  pmd.shm_ = &shm;
  pmd.vm_ = vm;
  pmd.port_ = port;
  pmd.cost_ = &cost;
  pmd.stats_ = stats;

  auto normal_region = shm.guest_map(normal_channel_region(port), vm);
  if (!normal_region.is_ok()) return normal_region.status();
  auto normal = ChannelView::attach(*normal_region.value());
  if (!normal.is_ok()) return normal.status();
  pmd.normal_ = normal.value();

  auto ctrl_region = shm.guest_map(control_channel_region(port), vm);
  if (!ctrl_region.is_ok()) return ctrl_region.status();
  auto ctrl = ControlChannel::attach(*ctrl_region.value());
  if (!ctrl.is_ok()) return ctrl.status();
  pmd.ctrl_ = ctrl.value();

  return pmd;
}

std::uint16_t GuestPmd::rx_burst(std::span<mbuf::Mbuf*> out,
                                 exec::CycleMeter& meter) noexcept {
  if (++rx_calls_since_ctrl_ >= kCtrlPollInterval) {
    rx_calls_since_ctrl_ = 0;
    process_control(meter);
  }

  std::size_t total = 0;

  // The normal channel is polled FIRST, unconditionally: the OpenFlow
  // controller may inject packet-out frames at any time, and frames that
  // were in flight on the normal path when a bypass activated must drain
  // ahead of newer bypass traffic. A saturated bypass must never starve
  // it (the probe on an empty ring costs one base charge).
  {
    meter.charge(cost_->ring_deq_base);
    const std::size_t n = normal_.a2b().dequeue_burst(out.subspan(total));
    meter.charge(static_cast<Cycles>(n) * cost_->ring_deq_per_pkt);
    counters_.rx_normal += n;
    total += n;
  }

  for (std::size_t i = 0; i < bypass_rx_count_ && total < out.size(); ++i) {
    meter.charge(cost_->ring_deq_base);
    const std::size_t n =
        bypass_rx_[i].ring->dequeue_burst(out.subspan(total));
    meter.charge(static_cast<Cycles>(n) * cost_->ring_deq_per_pkt);
    counters_.rx_bypass += n;
    total += n;
  }
  if (int_clock_ != nullptr && total > 0) {
    // Close the newest hop record: this dequeue is the frame leaving the
    // link it was stamped onto. Frames without a trailer (packet-out,
    // pre-enable traffic) are left untouched and charged nothing.
    // Epoch-granular: stamps from different contexts must be comparable,
    // and the sub-epoch clock is only ordered within one context.
    const TimeNs now = int_clock_->epoch_start_ns();
    for (std::size_t i = 0; i < total; ++i) {
      if (pkt::int_complete_hop(*out[i], now)) {
        meter.charge(cost_->int_stamp);
      }
    }
  }
  return static_cast<std::uint16_t>(total);
}

void GuestPmd::int_stamp_burst(std::span<mbuf::Mbuf* const> pkts,
                               std::size_t accepted,
                               std::size_t queue_depth,
                               exec::CycleMeter& meter) noexcept {
  const TimeNs now = int_clock_->epoch_start_ns();
  for (std::size_t i = 0; i < accepted; ++i) {
    if (pkt::int_push_hop(*pkts[i], port_, now,
                          static_cast<std::uint32_t>(queue_depth))) {
      meter.charge(cost_->int_stamp);
    }
  }
}

std::uint16_t GuestPmd::tx_burst(std::span<mbuf::Mbuf* const> pkts,
                                 exec::CycleMeter& meter) noexcept {
  meter.charge(cost_->ring_enq_base);
  std::size_t accepted;
  if (bypass_tx_ring_ != nullptr) {
    accepted = bypass_tx_ring_->enqueue_burst(pkts);
    meter.charge(static_cast<Cycles>(accepted) * cost_->ring_enq_per_pkt);
    if (int_clock_ != nullptr) {
      // Stamp before the byte sum so the accounted bytes include the
      // grown trailer — what the receiver will actually count.
      int_stamp_burst(pkts, accepted, bypass_tx_ring_->size(), meter);
    }
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < accepted; ++i) bytes += pkts[i]->data_len;
    // The switch never sees these frames; account them against the
    // OpenFlow rule and ports in the shared statistics memory.
    stats_.account_bypass(port_, bypass_tx_peer_, bypass_tx_slot_, accepted,
                          bytes);
    counters_.tx_bypass += accepted;
  } else {
    accepted = normal_.b2a().enqueue_burst(pkts);
    meter.charge(static_cast<Cycles>(accepted) * cost_->ring_enq_per_pkt);
    if (int_clock_ != nullptr) {
      int_stamp_burst(pkts, accepted, normal_.b2a().size(), meter);
    }
    counters_.tx_normal += accepted;
  }
  counters_.tx_rejected += pkts.size() - accepted;
  return static_cast<std::uint16_t>(accepted);
}

std::uint32_t GuestPmd::process_control(exec::CycleMeter& meter) {
  meter.charge(cost_->ctrl_poll);
  std::uint32_t handled = 0;
  CtrlMsg msg;
  while (ctrl_.cmd().dequeue(msg)) {
    ++counters_.ctrl_cmds;
    handle_ctrl(msg);
    ++handled;
  }
  return handled;
}

MbufRing* GuestPmd::map_bypass_ring(const CtrlMsg& msg, PortId writer) {
  auto region = shm_->guest_map(msg.region_name(), vm_);
  if (!region.is_ok()) return nullptr;
  auto view = ChannelView::attach(*region.value(), msg.epoch);
  if (!view.is_ok()) return nullptr;
  // a2b carries what endpoint A writes.
  return view.value().header().port_a == writer ? &view.value().a2b()
                                                : &view.value().b2a();
}

void GuestPmd::handle_ctrl(const CtrlMsg& msg) {
  switch (msg.op) {
    case CtrlOp::kAttachBypassRx: {
      // Direction peer→self: the peer writes this ring.
      MbufRing* ring = bypass_rx_count_ < kMaxBypassRx
                           ? map_bypass_ring(msg, msg.peer_port)
                           : nullptr;
      if (ring == nullptr) {
        send_ack(msg, false);
        return;
      }
      BypassRx& slot = bypass_rx_[bypass_rx_count_];
      slot.ring = ring;
      // Full-width copy: msg.region is always NUL-terminated by
      // set_region(), and copying the terminator keeps -Wstringop-
      // truncation satisfied where strncpy could not.
      std::memcpy(slot.region.data(), msg.region, kCtrlRegionNameLen);
      ++bypass_rx_count_;
      send_ack(msg, true);
      return;
    }

    case CtrlOp::kAttachBypassTx: {
      // Direction self→peer: we write this ring.
      MbufRing* ring =
          bypass_tx_ring_ == nullptr ? map_bypass_ring(msg, port_) : nullptr;
      if (ring == nullptr) {
        send_ack(msg, false);
        return;
      }
      bypass_tx_ring_ = ring;
      bypass_tx_peer_ = msg.peer_port;
      bypass_tx_slot_ = msg.rule_slot;
      std::memcpy(bypass_tx_region_.data(), msg.region, kCtrlRegionNameLen);
      send_ack(msg, true);
      return;
    }

    case CtrlOp::kDetachBypassTx: {
      if (bypass_tx_ring_ == nullptr ||
          std::strncmp(bypass_tx_region_.data(), msg.region,
                       kCtrlRegionNameLen) != 0) {
        send_ack(msg, false);
        return;
      }
      bypass_tx_ring_ = nullptr;
      bypass_tx_peer_ = kPortNone;
      bypass_tx_slot_ = kStatsSlotNone;
      bypass_tx_region_.fill('\0');
      send_ack(msg, true);
      return;
    }

    case CtrlOp::kDetachBypassRx: {
      for (std::size_t i = 0; i < bypass_rx_count_; ++i) {
        if (std::strncmp(bypass_rx_[i].region.data(), msg.region,
                         kCtrlRegionNameLen) != 0) {
          continue;
        }
        if (!bypass_rx_[i].ring->empty()) {
          // The agent detaches RX only after the TX side stopped and the
          // ring drained; a non-empty ring means "not yet" — NACK so the
          // agent retries.
          send_ack(msg, false);
          return;
        }
        bypass_rx_[i] = bypass_rx_[bypass_rx_count_ - 1];
        bypass_rx_[bypass_rx_count_ - 1] = BypassRx{};
        --bypass_rx_count_;
        send_ack(msg, true);
        return;
      }
      send_ack(msg, false);
      return;
    }

    case CtrlOp::kNop:
      send_ack(msg, true);
      return;
  }
  send_ack(msg, false);
}

void GuestPmd::send_ack(const CtrlMsg& cmd, bool ok) {
  if (!ok) {
    ++counters_.ctrl_errors;
    HW_LOG(kDebug, "pmd", "port %u NACK op=%u region=%s", port_,
           static_cast<unsigned>(cmd.op), cmd.region);
  }
  CtrlMsg ack = cmd;
  ack.ok = ok ? 1 : 0;
  if (!ctrl_.ack().enqueue(ack)) {
    HW_LOG(kWarn, "pmd", "port %u ack ring full", port_);
  }
}

}  // namespace hw::pmd
