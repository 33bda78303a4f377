#pragma once

#include <string>
#include <vector>

#include "common/latency.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "exec/runtime.h"
#include "mbuf/mempool.h"
#include "pkt/endpoint.h"
#include "pkt/traffic_profile.h"
#include "pmd/guest_pmd.h"

/// \file apps.h
/// DPDK-style applications running inside VMs. Each is a single-core
/// poll loop over GuestPmd ports — the paper's workload is "a single core
/// DPDK application that moves packets from one port to another", which is
/// ForwarderApp; GenSinkApp provides the source/sink role the first and
/// last VM of a memory-only chain play in Figure 3(a).

namespace hw::vm {

/// A ForwarderApp's counters. A GenSinkApp reports its endpoint's
/// counters (pkt::EndpointCounters) in the same struct.
struct AppCounters : pkt::EndpointCounters {
  std::uint64_t forwarded = 0;
  std::uint64_t tx_drops = 0;  ///< destination ring full, frame freed
};

/// Per-hop-position aggregate a sink collects from INT trailers: one
/// entry per trailer position (0 = first stamping element on the path).
struct IntHopStats {
  std::uint32_t hop_id = 0;        ///< stamping port (last seen)
  std::uint64_t samples = 0;
  std::uint64_t queue_depth_sum = 0;
  LatencyRecorder transit;         ///< egress - ingress per record
};

/// Bidirectional port-to-port forwarder (the chain VNF): everything
/// received on `left` goes out `right` and vice versa.
class ForwarderApp final : public exec::Context {
 public:
  ForwarderApp(std::string name, pmd::GuestPmd& left, pmd::GuestPmd& right,
               mbuf::Mempool& pool, const exec::CostModel& cost);

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  std::uint32_t poll(exec::CycleMeter& meter) override;

  [[nodiscard]] const AppCounters& counters() const noexcept {
    return counters_;
  }

 private:
  std::uint32_t pump(pmd::GuestPmd& from, pmd::GuestPmd& to,
                     exec::CycleMeter& meter);

  std::string name_;
  pmd::GuestPmd* left_;
  pmd::GuestPmd* right_;
  mbuf::Mempool* pool_;
  const exec::CostModel* cost_;
  std::vector<mbuf::Mbuf*> buf_;
  AppCounters counters_;
};

/// Endpoint app for memory-only chains: its pkt::Endpoint generates
/// traffic out of one port at core speed and sinks whatever arrives on
/// it (the reverse direction), measuring latency from the embedded
/// timestamps.
class GenSinkApp final : public exec::Context {
 public:
  /// `rate_pps` == 0 generates at core speed (saturation); a nonzero rate
  /// paces generation with a token bucket in virtual time — used for
  /// latency measurements below saturation.
  GenSinkApp(std::string name, pmd::GuestPmd& port, mbuf::Mempool& pool,
             const pkt::TrafficProfile& profile, exec::Runtime& runtime,
             const exec::CostModel& cost, bool generate = true,
             std::uint32_t burst = kBurstSize, std::uint64_t rate_pps = 0);

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  std::uint32_t poll(exec::CycleMeter& meter) override;

  [[nodiscard]] AppCounters counters() const noexcept {
    return {endpoint_.counters()};
  }
  void set_generate(bool on) noexcept { endpoint_.set_generate(on); }
  /// Offered-load shape from the workload engine (docs/WORKLOADS.md).
  [[nodiscard]] const pkt::WorkloadStats& workload_stats() const noexcept {
    return endpoint_.workload_stats();
  }
  [[nodiscard]] pkt::Endpoint& endpoint() noexcept { return endpoint_; }
  [[nodiscard]] const pkt::Endpoint& endpoint() const noexcept {
    return endpoint_;
  }

  /// Enables INT trailer collection on sunk frames: per-hop-position
  /// transit latency and queue depth (docs/OBSERVABILITY.md). The sink's
  /// own GuestPmd must have INT configured so the final hop record is
  /// completed before the app sees the frame.
  void set_collect_int(bool on) noexcept { collect_int_ = on; }
  /// Collected per-hop-position stats, index = trailer position.
  [[nodiscard]] const std::vector<IntHopStats>& int_hops() const noexcept {
    return int_hops_;
  }

 private:
  void record_int_hops(std::span<mbuf::Mbuf* const> frames);

  std::string name_;
  pmd::GuestPmd* port_;
  exec::Runtime* runtime_;
  const exec::CostModel* cost_;
  std::uint32_t burst_;
  std::uint64_t rate_pps_;
  double tokens_ = 0;
  TimeNs last_refill_ns_ = 0;
  pkt::Endpoint endpoint_;
  std::vector<mbuf::Mbuf*> buf_;
  bool collect_int_ = false;
  std::vector<IntHopStats> int_hops_;
};

}  // namespace hw::vm
