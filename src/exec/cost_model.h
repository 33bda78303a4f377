#pragma once

#include <cstdint>

#include "common/types.h"

/// \file cost_model.h
/// Per-operation virtual CPU costs, in cycles on a 3 GHz core (the paper's
/// Xeon E5-2690 v2 frequency).
///
/// Every constant here is set by hand, not fitted to any measurement. The
/// anchors they were set against are published figures:
///  * OVS-DPDK with EMC hits is widely reported at ~11–16 Mpps per PMD
///    core for port-to-port forwarding. Our EMC-hit switch path charges
///    120 cycles per packet (ring_deq_per_pkt 10 + parse_per_pkt 25 +
///    emc_hit 55 + action_per_pkt 20 + ring_enq_per_pkt 10) and 100 per
///    burst (ring_deq_base 30 + classify_batch_base 40 + ring_enq_base
///    30): ≈ 123 cycles per packet at a 32-packet burst → ~24 Mpps/core,
///    above the range it cites.
///  * A trivial DPDK l2fwd-style VM app (ring→ring, touch headers) runs at
///    several tens of Mpps. Our VM forwarder charges 50 cycles per packet
///    (ring_deq_per_pkt 10 + vm_app_per_pkt 30 + ring_enq_per_pkt 10) and
///    60 per burst (ring_deq_base 30 + ring_enq_base 30, plus 30 per
///    bypass ring polled): ≈ 52 cycles per packet at a 32-packet burst →
///    ~58 Mpps.
/// Fitting the ratios to per-layer host timings is open work (ROADMAP.md
/// item 2, the calibrated cost model). Until then absolute numbers are
/// indicative; the reproduced *shapes* come from which virtual core
/// executes which per-hop work.

namespace hw::exec {

struct CostModel {
  std::uint64_t hz = 3'000'000'000ULL;  ///< virtual core frequency

  // Ring I/O (per burst base + per packet), mirroring rte_ring costs.
  std::uint32_t ring_deq_base = 30;
  std::uint32_t ring_deq_per_pkt = 10;
  std::uint32_t ring_enq_base = 30;
  std::uint32_t ring_enq_per_pkt = 10;

  // Switch datapath — one cost per classifier tier, so ablations can show
  // where an EMC miss lands. Anchors: OVS-DPDK dpcls hits are reported
  // around 2-3x an EMC hit (one hash+compare per subtable probed), and an
  // upcall to the slow path costs an order of magnitude more than either.
  std::uint32_t parse_per_pkt = 25;        ///< key extraction
  std::uint32_t emc_hit = 55;              ///< exact-match cache probe
  std::uint32_t megaflow_per_subtable = 70;  ///< single-key dpcls probe: mask + hash + dispatch
  // Subtable compare work, charged on top of the per-probe base. A probe
  // reads the key's one or two cuckoo buckets (and the overflow stash's,
  // if its first bucket overflowed), one 16-lane signature compare each
  // (hw::simd, the same charge in every build), and full-compares only
  // signature matches.
  std::uint32_t megaflow_sig_block = 4;      ///< one 16-lane bucket read
  /// Charged nowhere; kept only because hostbench/src/chain.cpp lists
  /// every CostModel field.
  std::uint32_t megaflow_sig_scalar = 2;
  std::uint32_t megaflow_prefilter_check = 6;///< one revalidation-index probe
  std::uint32_t megaflow_full_compare = 20;  ///< full masked-key compare
  // Batched classification (dpcls batch loop): probing one subtable for a
  // whole batch amortizes mask load, rank lookup and EWMA accounting, so
  // the per-packet-per-subtable charge drops below the single-key base
  // (paid only by the tier-3 re-probe of one key).
  std::uint32_t megaflow_batch_packet = 25;  ///< per packet per subtable, batched
  std::uint32_t classify_batch_base = 40;    ///< per-batch dispatch + outcome sort
  std::uint32_t megaflow_insert = 45;      ///< megaflow install on upcall
  std::uint32_t slow_path_base = 150;      ///< fixed upcall overhead
  /// Per rule of OVS's priority-order scan up to the winner (every rule
  /// on a miss), which tests each rule and folds its match into the
  /// unwildcard set. The host tests those rules with one compiled test
  /// each and reads the set from a table, so this charges the modeled
  /// OVS scan, not the host's work.
  std::uint32_t classifier_per_rule = 25;
  std::uint32_t action_per_pkt = 20;       ///< action execution + batching
  // Revalidator (precise cache repair on FlowMod, charged on the owner
  // thread when pending change events are drained). A drain coalesces the
  // whole event burst into ONE pass over both tiers' suspects, charged per
  // entry *examined*, never per event — and the per-entry suspect test is
  // itself charged exactly: a sorted-id membership probe per entry
  // (revalidate_per_entry) plus one intersect test per merged ADD term
  // actually examined for that entry (revalidate_per_term), so bursts
  // whose ADD masks defy containment-merging pay their true O(terms)
  // cost instead of the old O(1)-per-entry simplification. The entries
  // examined are the candidates the revalidation indexes return, each
  // index bucket looked up charged at megaflow_prefilter_check; a drain
  // that builds an index examines every entry once. Only the suspects
  // then pay a wildcard re-lookup, anchored to the slow path: about an
  // upcall minus the fixed boundary crossing, repair and evict split so
  // the two outcomes are separately visible in ablations.
  // Host cost per entry examined still exceeds revalidate_per_entry +
  // per_term; these constants wait for ROADMAP item 2's fit.
  std::uint32_t revalidate_per_entry = 8;  ///< membership probe per entry examined
  std::uint32_t revalidate_per_term = 3;   ///< one merged-ADD-mask intersect test
  std::uint32_t revalidate_repair = 130;   ///< re-lookup + repair in place
  std::uint32_t revalidate_evict = 140;    ///< failed re-lookup + eviction

  // RSS sharding (multi-PMD scale-out, docs/SCALEOUT.md). The home
  // engine's distributor is the software stand-in for NIC RSS: per packet
  // it pays one 5-tuple hash plus an indirection-table load before the
  // frame is staged to its owner's rx queue (cross-engine hops then pay
  // the normal ring_enq/ring_deq costs). A balance check is one EWMA fold
  // plus a victim scan over the bucket table — the analogue of OVS
  // pmd-auto-lb's dry run, charged on whichever engine's window fills.
  std::uint32_t rss_hash_per_pkt = 12;     ///< 5-tuple hash + RETA load
  std::uint32_t rss_rebalance_check = 120; ///< one auto-lb EWMA pass

  // VM application work.
  std::uint32_t vm_app_per_pkt = 30;   ///< header touch ("move packets")
  std::uint32_t mbuf_alloc = 25;       ///< generator-side alloc+build
  std::uint32_t mbuf_free = 15;        ///< sink-side free

  // NIC / misc.
  std::uint32_t nic_per_pkt = 20;      ///< DMA/MAC handling per frame
  std::uint32_t idle_poll = 35;        ///< cost of an empty poll iteration
  std::uint32_t ctrl_poll = 20;        ///< control-channel check

  // Telemetry (charged only when the corresponding layer is enabled, so
  // bench_telemetry_overhead's <5% gate is deterministic virtual cost,
  // not wall-clock noise). Anchors: a span record is two rdtsc-class
  // stamps plus a ring store; an INT stamp is a 24 B memcpy + footer
  // rewrite on the frame tail.
  std::uint32_t trace_span = 8;        ///< one completed trace span
  std::uint32_t int_stamp = 12;        ///< one INT hop push or complete

  [[nodiscard]] constexpr double ns_per_cycle() const noexcept {
    return 1e9 / static_cast<double>(hz);
  }
  [[nodiscard]] constexpr Cycles cycles_for_ns(TimeNs ns) const noexcept {
    return static_cast<Cycles>(static_cast<double>(ns) *
                               static_cast<double>(hz) / 1e9);
  }
};

}  // namespace hw::exec
