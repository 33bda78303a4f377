#include "nic/sim_nic.h"

#include "common/units.h"

namespace hw::nic {

SimNic::SimNic(std::string name, const NicConfig& config,
               exec::Runtime& runtime, const exec::CostModel& cost,
               mbuf::Mempool& pool)
    : name_(std::move(name)),
      config_(config),
      runtime_(&runtime),
      cost_(&cost),
      pool_(&pool),
      rx_ring_(config.ring_capacity),
      tx_ring_(config.ring_capacity) {
  scratch_.resize(config.burst);
  last_refill_ns_ = runtime.now_ns();
}

void SimNic::refill_tokens() noexcept {
  const TimeNs now = runtime_->now_ns();
  if (now <= last_refill_ns_) return;
  const TimeNs delta = now - last_refill_ns_;
  last_refill_ns_ = now;
  // bytes = bits_per_sec * delta / 8e9
  const auto earned = static_cast<std::int64_t>(
      static_cast<double>(config_.bits_per_sec) * static_cast<double>(delta) /
      8e9);
  rx_tokens_ = std::min(rx_tokens_ + earned, config_.bucket_depth_bytes);
  tx_tokens_ = std::min(tx_tokens_ + earned, config_.bucket_depth_bytes);
}

std::uint32_t SimNic::poll(exec::CycleMeter& meter) {
  refill_tokens();
  std::uint32_t work = 0;

  // Ingress: wire → host rx ring, paced by rx tokens.
  if (source_ != nullptr) {
    const std::int64_t frame_wire =
        static_cast<std::int64_t>(source_->frame_len()) + kEthWireOverhead;
    while (rx_tokens_ >= frame_wire) {
      const std::size_t want =
          std::min<std::size_t>(config_.burst,
                                static_cast<std::size_t>(rx_tokens_ / frame_wire));
      const std::size_t produced =
          source_->produce(std::span(scratch_.data(), want));
      if (produced == 0) break;
      rx_tokens_ -= static_cast<std::int64_t>(produced) * frame_wire;
      meter.charge(static_cast<Cycles>(produced) * cost_->nic_per_pkt);
      const std::size_t accepted = host_rx().enqueue_burst(
          std::span<mbuf::Mbuf* const>(scratch_.data(), produced));
      counters_.rx_admitted += accepted;
      if (accepted < produced) {
        // Host ring full: real NICs count these as rx_missed and drop.
        pool_->free_bulk(std::span<mbuf::Mbuf* const>(
            scratch_.data() + accepted, produced - accepted));
        counters_.rx_missed += produced - accepted;
      }
      work += static_cast<std::uint32_t>(produced);
      if (produced < want) break;  // generator ran out (pool exhausted)
    }
  }

  // Egress: host tx ring → wire, paced by tx tokens.
  if (sink_ != nullptr) {
    while (tx_tokens_ > 0) {
      const std::size_t n = tx_ring_->dequeue_burst(
          std::span(scratch_.data(), config_.burst));
      if (n == 0) break;
      meter.charge(static_cast<Cycles>(n) * cost_->nic_per_pkt);
      std::int64_t wire_bytes = 0;
      for (std::size_t i = 0; i < n; ++i) {
        wire_bytes += scratch_[i]->data_len + kEthWireOverhead;
      }
      tx_tokens_ -= wire_bytes;  // may dip below zero; recovers on refill
      counters_.tx_delivered += n;
      sink_->consume(std::span<mbuf::Mbuf* const>(scratch_.data(), n));
      work += static_cast<std::uint32_t>(n);
    }
  }

  if (work == 0) meter.charge(cost_->idle_poll);
  return work;
}

double SimNic::line_rate_pps(std::uint32_t frame_len) const noexcept {
  return hw::line_rate_pps(config_.bits_per_sec, frame_len);
}

}  // namespace hw::nic
