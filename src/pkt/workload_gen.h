#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sampler.h"
#include "common/topk.h"
#include "mbuf/mbuf.h"
#include "pkt/traffic_profile.h"
#include "pkt/workload.h"

/// \file workload_gen.h
/// The workload engine behind every traffic generator: picks which flow
/// sends next (round-robin / uniform / Zipf over the live population),
/// runs the churn process (Poisson arrivals, mice packet budgets,
/// elephant lifetimes, ON-OFF gating), and synthesizes frames lazily from
/// the profile's compact flow descriptor.
///
/// Memory is O(active flows) for churn bookkeeping, at most 1.63 MB for
/// the Zipf sampler's word bounds (a fixed population of up to 65,536
/// flows, whose draws then run on integer compares; a churning one draws
/// in floating point), and O(1) for everything else — no per-flow
/// template images — so a profile can offer millions of distinct
/// 5-tuples. Neither the word bounds nor the top-k sketch, which sees
/// every 16th pick, changes which flows are picked: the stream is fixed
/// by the profile and its seed.
/// Synthesis is byte-identical to build_frame(profile.flow_spec(id)): a
/// prototype frame per L4 protocol is patched with the flow's
/// MACs/IPs/ports, and the IPv4 header checksum adds the four 16-bit
/// address halves to the prototype's precomputed sum of its other words,
/// then folds twice and complements. That is internet_checksum's
/// arithmetic over the same words, so the same 16 bits, for 4 additions
/// instead of 10 (workload_test.cpp holds the byte-for-byte and carry
/// regressions).

namespace hw::pkt {

class WorkloadGen {
 public:
  explicit WorkloadGen(const TrafficProfile& profile);

  /// Advances churn/gating state to virtual time `now`. Returns false
  /// when the source must stay silent this poll (ON-OFF gate closed, or
  /// a churned population that is momentarily empty).
  [[nodiscard]] bool advance(TimeNs now) noexcept;

  /// Selects the flow for the next frame. Only valid after the most
  /// recent advance() returned true.
  [[nodiscard]] std::uint64_t pick_flow() noexcept;

  /// Writes the complete frame for `flow_id` into `buf` (sets data_len,
  /// clears the cached flow hash).
  void synthesize(mbuf::Mbuf& buf, std::uint64_t flow_id) noexcept;

  [[nodiscard]] const WorkloadStats& stats() const noexcept { return stats_; }

  /// Fraction of offered frames carried by the ~k hottest flows (exact
  /// for a round-robin sweep of a fixed population; otherwise a
  /// SpaceSaving estimate over every 16th pick).
  [[nodiscard]] double top_share(std::size_t k) const;

  [[nodiscard]] std::uint32_t frame_len() const noexcept {
    return profile_.frame_len;
  }

 private:
  struct ActiveFlow {
    std::uint64_t id = 0;
    std::uint32_t packets_left = 0;  ///< >0 = mouse budget; 0 = elephant
    TimeNs deadline = 0;             ///< elephant lifetime end; 0 = immortal
  };

  void build_prototypes();
  void spawn(TimeNs now) noexcept;
  void admit(TimeNs now) noexcept;
  void sweep_expired(TimeNs now) noexcept;
  void depart(std::size_t idx) noexcept;
  [[nodiscard]] std::uint64_t pick_rank(std::uint64_t n) noexcept;

  TrafficProfile profile_;
  WorkloadConfig cfg_;
  Rng rng_;
  ZipfSampler zipf_;
  PoissonProcess arrivals_;
  PoissonProcess elephant_life_;
  OnOffGate gate_;
  TopKSketch topk_;
  bool track_topk_;

  /// Live population under ChurnModel::kPoisson. Departures swap-pop, so
  /// the head of the vector drifts toward long-lived flows — which is
  /// exactly where Zipf puts its hot ranks.
  std::vector<ActiveFlow> active_;
  std::uint64_t next_fresh_id_ = 0;
  TimeNs next_arrival_ = 0;
  std::uint32_t polls_since_sweep_ = 0;
  std::uint64_t rr_next_ = 0;

  /// The frame every flow of one L4 protocol starts from, and the
  /// one's-complement sum of its IPv4 header with the addresses and the
  /// checksum zeroed.
  struct Prototype {
    std::vector<std::byte> frame;
    std::uint32_t ip_sum = 0;
  };
  Prototype udp_;
  Prototype tcp_;
  WorkloadStats stats_;
};

}  // namespace hw::pkt
