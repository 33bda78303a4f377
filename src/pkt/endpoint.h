#pragma once

#include <cstdint>
#include <span>

#include "common/latency.h"
#include "common/seqtrack.h"
#include "exec/runtime.h"
#include "mbuf/mempool.h"
#include "pkt/traffic_profile.h"
#include "pkt/workload_gen.h"

/// \file endpoint.h
/// The traffic endpoint of every chain: it generates the frames one
/// direction offers and sinks the frames the other delivers. Figure 3(a)
/// runs one inside each end VM (vm::GenSinkApp, fed through a GuestPmd
/// port) and Figure 3(b) one behind each NIC (nic::SimNic, fed through
/// the wire), so both topologies offer and measure traffic with the same
/// code. The owner keeps only its port: it moves the bursts and charges
/// their cost. Counters are defined in docs/COUNTERS.md.

namespace hw::pkt {

struct EndpointCounters {
  std::uint64_t generated = 0;        ///< frames the port accepted
  std::uint64_t delivered = 0;        ///< frames sunk
  std::uint64_t delivered_bytes = 0;  ///< bytes sunk (INT trailer included)
  std::uint64_t reorders = 0;         ///< intra-flow sequence regressions
  std::uint64_t alloc_failures = 0;   ///< generate calls the pool left short
};

class Endpoint {
 public:
  Endpoint(const TrafficProfile& profile, mbuf::Mempool& pool,
           const exec::Runtime& runtime, bool generate = true);

  /// Fills up to out.size() frames: synthesized in pick order through
  /// the workload engine (docs/WORKLOADS.md), numbered from 1 and stamped
  /// with the epoch start. Returns 0 while generation is off, for an
  /// empty request, or while the workload's ON-OFF gate is closed. A
  /// burst the pool cannot fill counts one alloc failure.
  [[nodiscard]] std::size_t generate(std::span<mbuf::Mbuf*> out) noexcept;

  /// Takes back a generated burst once its port accepted the first
  /// `accepted` frames: counts those as generated and frees the rest.
  void sent(std::span<mbuf::Mbuf* const> burst,
            std::size_t accepted) noexcept;

  /// Counts, measures (latency, per-flow order) and frees delivered
  /// frames.
  void sink(std::span<mbuf::Mbuf* const> frames) noexcept;

  [[nodiscard]] bool generating() const noexcept { return generate_; }
  void set_generate(bool on) noexcept { generate_ = on; }

  [[nodiscard]] const EndpointCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const LatencyRecorder& latency() const noexcept {
    return latency_;
  }
  /// Starts a fresh latency window; the counters keep running totals.
  void reset_latency() noexcept { latency_.reset(); }

  /// Offered-load shape: frames synthesized (`offered`), active flows,
  /// arrivals/departures, distinct ids.
  [[nodiscard]] const WorkloadStats& workload_stats() const noexcept {
    return gen_.stats();
  }
  /// Share of offered frames carried by the ~k hottest flows.
  [[nodiscard]] double top_share(std::size_t k) const {
    return gen_.top_share(k);
  }
  [[nodiscard]] std::uint32_t frame_len() const noexcept {
    return gen_.frame_len();
  }

 private:
  mbuf::Mempool* pool_;
  const exec::Runtime* runtime_;
  bool generate_;
  WorkloadGen gen_;  ///< lazy per-packet synthesis, O(active) memory
  SeqNo next_seq_ = 1;
  FlowSeqTracker rx_track_;  ///< per-flow order check (not one global seq)
  EndpointCounters counters_;
  LatencyRecorder latency_;
};

}  // namespace hw::pkt
