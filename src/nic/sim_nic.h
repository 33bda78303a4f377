#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/context.h"
#include "exec/cost_model.h"
#include "exec/runtime.h"
#include "mbuf/mempool.h"
#include "pkt/endpoint.h"
#include "pkt/traffic_profile.h"
#include "ring/spsc_ring.h"

/// \file sim_nic.h
/// Token-bucket model of a 10 GbE port (the paper's Intel 82599ES).
///
/// Wire side: the NIC's traffic endpoint (pkt::Endpoint) stands in for
/// the hardware tester on the wire: it offers frames and absorbs the
/// frames sent out. Both directions are paced by byte-accurate token
/// buckets that include the 20 B preamble+IFG overhead, so a 64 B
/// workload caps at 14.88 Mpps per direction — the ceiling visible in
/// Figure 3(b).
///
/// Host side: rx_ring (NIC→switch) and tx_ring (switch→NIC), polled by the
/// switch's PhyPort exactly like dpdkr rings. When the host rx ring is
/// full the frame is dropped and counted (`rx_missed`), matching real NIC
/// behaviour under switch overload.

namespace hw::nic {

struct NicConfig {
  std::size_t ring_capacity = 1024;
};

struct NicCounters {
  std::uint64_t rx_missed = 0;  ///< dropped, host ring full
};

class SimNic final : public exec::Context {
 public:
  static constexpr std::uint64_t kBitsPerSec = 10'000'000'000ULL;
  /// Token bucket depth in bytes (wire time the NIC may "catch up").
  static constexpr std::int64_t kBucketDepthBytes = 64 * 1024;

  /// The wire endpoint generates `profile`'s traffic unless `generate` is
  /// false (a sink-only port); it always sinks what the host sends.
  SimNic(std::string name, const NicConfig& config, exec::Runtime& runtime,
         const exec::CostModel& cost, mbuf::Mempool& pool,
         const pkt::TrafficProfile& profile, bool generate = true);

  /// Host-side rings, consumed/fed by the switch's PhyPort.
  [[nodiscard]] ring::SpscRing<mbuf::Mbuf*>& host_rx() noexcept {
    return *rx_ring_.get();
  }
  [[nodiscard]] ring::SpscRing<mbuf::Mbuf*>& host_tx() noexcept {
    return *tx_ring_.get();
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  std::uint32_t poll(exec::CycleMeter& meter) override;

  [[nodiscard]] const NicCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] pkt::Endpoint& endpoint() noexcept { return endpoint_; }

 private:
  void refill_tokens() noexcept;

  std::string name_;
  NicConfig config_;
  exec::Runtime* runtime_;
  const exec::CostModel* cost_;
  pkt::Endpoint endpoint_;

  ring::OwnedSpscRing<mbuf::Mbuf*> rx_ring_;
  ring::OwnedSpscRing<mbuf::Mbuf*> tx_ring_;

  TimeNs last_refill_ns_ = 0;
  std::int64_t rx_tokens_ = 0;  ///< bytes of wire time available, ingress
  std::int64_t tx_tokens_ = 0;  ///< egress
  NicCounters counters_;
  std::vector<mbuf::Mbuf*> scratch_;
};

}  // namespace hw::nic
