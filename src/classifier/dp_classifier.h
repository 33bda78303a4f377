#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "classifier/megaflow.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "pkt/flow_key.h"
#include "telemetry/trace.h"

namespace hw::exec {
class Runtime;
}

/// \file dp_classifier.h
/// The full three-tier OVS-DPDK datapath classifier, one instance per
/// forwarding engine (like one EMC + dpcls pair per PMD thread):
///
///   1. exact-match cache   — O(1) direct-mapped, full-key compare;
///   2. megaflow cache      — tuple-space search over masked keys, with a
///                            per-subtable 16-bit signature array scanned
///                            ahead of any full masked compare (real SIMD
///                            blocks via hw::simd, `sig_scan_mode` picks
///                            the scalar loop for ablation) and a
///                            counting-Bloom subtable prefilter that
///                            skips subtables which provably cannot hold
///                            the masked key;
///   3. slow path           — priority-ordered wildcard table scan, which
///                            *installs* a megaflow covering every field
///                            it examined (the upcall's unwildcard set)
///                            so subsequent packets of any flow the same
///                            megaflow covers stop at tier 2.
///
/// There is one classification path, lookup_batch (the dpcls batch loop);
/// a one-key lookup() is a batch of one. A batch drains pending
/// revalidation once, probes each megaflow subtable for the whole batch
/// in one pass (amortizing rank dispatch and EWMA accounting), sorts
/// outcomes per tier, and installs megaflows for all slow-path packets of
/// the batch in one pass. The differential equivalence fuzzer in
/// tests/control/classifier_equiv_test.cpp proves continuously that it
/// returns exactly the wildcard table's rule for every packet.
///
/// Staleness safety: the classifier subscribes to FlowTable changes and
/// runs an OVS-style *coalescing* revalidator on its own thread — each
/// drain folds the whole pending event burst into one suspect scan over
/// both cache tiers (suspect entries re-looked-up and repaired or
/// evicted; untouched entries keep serving), with per-rule generation
/// stamps (EMC) and per-entry version stamps (megaflow) as the safety
/// net. A stale rule is therefore never served, a FlowMod no longer
/// costs the whole cache, and a burst of N FlowMods costs one scan
/// instead of N. Cost is charged per entry examined plus per
/// repair/evict (exec::CostModel), mirroring how empirical OVS delay
/// models attribute cache-maintenance cost under control-plane churn.

namespace hw::classifier {

/// Which tier resolved a lookup.
enum class Tier : std::uint8_t { kEmc, kMegaflow, kSlowPath, kMiss };

struct LookupOutcome {
  flowtable::FlowEntry* entry = nullptr;
  Tier tier = Tier::kMiss;
};

/// Per-pipeline work tallies. Hit/miss counts depend on how packets are
/// grouped into batches — e.g. a cold burst of one new flow probes the
/// EMC and the megaflow tier for the whole batch before its first upcall
/// can install anything — so they are comparable between runs with the
/// same batching, not across batch sizes.
struct TierCounters {
  std::uint64_t emc_hits = 0;
  std::uint64_t emc_misses = 0;
  std::uint64_t megaflow_hits = 0;
  std::uint64_t megaflow_misses = 0;
  std::uint64_t megaflow_inserts = 0;
  std::uint64_t megaflow_invalidations = 0;  ///< full-cache flushes
  std::uint64_t megaflow_revalidations = 0;  ///< suspect entries re-checked
  std::uint64_t megaflow_revalidation_evictions = 0;
  std::uint64_t emc_revalidations = 0;       ///< EMC slots repaired/evicted
  std::uint64_t slow_path_lookups = 0;
  std::uint64_t slow_path_misses = 0;  ///< no rule matched at all
  // Signature prefilter + batch pipeline telemetry.
  std::uint64_t sig_hits = 0;             ///< signature matches confirmed
  std::uint64_t sig_false_positives = 0;  ///< signature matched, compare failed
  std::uint64_t batches = 0;              ///< classify batches (lookup() = 1)
  std::uint64_t batch_packets = 0;        ///< packets classified in batches
  // Coalescing-revalidator telemetry (see docs/COUNTERS.md).
  std::uint64_t reval_batches = 0;          ///< suspect-scan passes executed
  std::uint64_t reval_entries_scanned = 0;  ///< entries examined (both tiers)
  std::uint64_t reval_coalesced_events = 0; ///< events folded into shared scans
  std::uint64_t cache_resizes = 0;          ///< megaflow capacity retargets
  // SIMD-scan + subtable-prefilter telemetry (see docs/COUNTERS.md).
  std::uint64_t simd_blocks = 0;            ///< 16-signature SIMD blocks scanned
  std::uint64_t subtables_skipped = 0;      ///< whole-subtable prefilter skips
  std::uint64_t prefilter_false_positives = 0; ///< Bloom passed, scan found nothing

  TierCounters& operator+=(const TierCounters& other) noexcept {
    emc_hits += other.emc_hits;
    emc_misses += other.emc_misses;
    megaflow_hits += other.megaflow_hits;
    megaflow_misses += other.megaflow_misses;
    megaflow_inserts += other.megaflow_inserts;
    megaflow_invalidations += other.megaflow_invalidations;
    megaflow_revalidations += other.megaflow_revalidations;
    megaflow_revalidation_evictions += other.megaflow_revalidation_evictions;
    emc_revalidations += other.emc_revalidations;
    slow_path_lookups += other.slow_path_lookups;
    slow_path_misses += other.slow_path_misses;
    sig_hits += other.sig_hits;
    sig_false_positives += other.sig_false_positives;
    batches += other.batches;
    batch_packets += other.batch_packets;
    reval_batches += other.reval_batches;
    reval_entries_scanned += other.reval_entries_scanned;
    reval_coalesced_events += other.reval_coalesced_events;
    cache_resizes += other.cache_resizes;
    simd_blocks += other.simd_blocks;
    subtables_skipped += other.subtables_skipped;
    prefilter_false_positives += other.prefilter_false_positives;
    return *this;
  }
};

struct DpClassifierConfig {
  bool emc_enabled = true;
  bool megaflow_enabled = true;
  std::size_t emc_buckets = 4096;
  MegaflowCache::Config megaflow{};
};

class DpClassifier {
 public:
  DpClassifier(flowtable::FlowTable& table, const exec::CostModel& cost,
               DpClassifierConfig config = {});
  ~DpClassifier();

  DpClassifier(const DpClassifier&) = delete;
  DpClassifier& operator=(const DpClassifier&) = delete;

  /// Batched classification (the dpcls batch loop): classifies
  /// `keys[i]`/`hashes[i]` into `out[i]` for the whole batch, charging
  /// `meter` the per-batch base plus amortized per-tier costs (and any
  /// pending revalidation work applied on this, the owner, thread).
  /// `hashes[i]` is the full flow_key_hash (the EMC index). Pending
  /// revalidation is drained once for the batch; EMC misses probe the
  /// megaflow tier one subtable at a time across the whole miss set; all
  /// slow-path packets resolve and install their megaflows in one final
  /// pass.
  void lookup_batch(std::span<const pkt::FlowKey> keys,
                    std::span<const std::uint32_t> hashes,
                    std::span<LookupOutcome> out, exec::CycleMeter& meter);

  /// Classifies one key: a batch of one.
  [[nodiscard]] LookupOutcome lookup(const pkt::FlowKey& key,
                                     std::uint32_t hash,
                                     exec::CycleMeter& meter) {
    LookupOutcome out;
    lookup_batch({&key, 1}, {&hash, 1}, {&out, 1}, meter);
    return out;
  }

  /// Enables span recording (tier passes, revalidator drains). `clock`
  /// supplies the epoch base; sub-epoch offsets come from the meter at
  /// each span boundary. Pass a null tracer to disable again.
  void configure_trace(telemetry::Tracer* tracer, const exec::Runtime* clock,
                       std::uint16_t track) noexcept {
    tracer_ = tracer;
    trace_clock_ = tracer != nullptr ? clock : nullptr;
    trace_track_ = track;
  }

  [[nodiscard]] const TierCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const flowtable::ExactMatchCache& emc() const noexcept {
    return emc_;
  }
  [[nodiscard]] const MegaflowCache& megaflow() const noexcept {
    return megaflow_;
  }
  [[nodiscard]] const DpClassifierConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Re-runs the wildcard scan for `key`, accumulating the unwildcard set
  /// exactly like a slow-path upcall; shared by tier 3 and the resolver
  /// the revalidator repairs megaflows with.
  MegaflowCache::Resolution resolve(const pkt::FlowKey& key,
                                    std::uint32_t* visited) noexcept;
  /// Applies pending FlowMod events to both cache tiers (owner thread).
  void drain_table_changes(exec::CycleMeter& meter);
  /// Charges `meter` for any revalidation work performed since the last
  /// call (per entry examined + per repair/evict, both tiers — including
  /// drains triggered inside megaflow lookup/insert) and mirrors the
  /// revalidator counters into counters_.
  void charge_reval_work(exec::CycleMeter& meter);
  /// Converts a megaflow probe tally into cycles (single-key or batched
  /// per-subtable base; signature-scan and compare charges are shared).
  [[nodiscard]] Cycles tally_cycles(const ProbeTally& tally,
                                    bool batched) const noexcept;
  /// One EMC probe: charge, lookup, hit/miss counting. The single
  /// definition shared by every path that touches tier 1.
  [[nodiscard]] flowtable::FlowEntry* probe_emc(const pkt::FlowKey& key,
                                                std::uint32_t hash,
                                                exec::CycleMeter& meter);
  /// Tier 1 + tier 2 re-probe for one key of the tier-3 pass (EMC, then
  /// megaflow, with EMC promotion on a megaflow hit), charged at the
  /// single-key rate; {nullptr, kMiss} when neither cache resolves it.
  [[nodiscard]] LookupOutcome probe_caches(const pkt::FlowKey& key,
                                           std::uint32_t hash,
                                           std::uint64_t version,
                                           exec::CycleMeter& meter);
  /// Tier-3 upcall for one key: wildcard scan + megaflow/EMC install.
  [[nodiscard]] LookupOutcome slow_path(const pkt::FlowKey& key,
                                        std::uint32_t hash,
                                        std::uint64_t version,
                                        exec::CycleMeter& meter);
  /// Mirrors cache-internal signature tallies into counters_.
  void mirror_sig_stats() noexcept;

  /// Epoch base for span timestamps; 0 when tracing is unconfigured.
  [[nodiscard]] TimeNs trace_base() const noexcept;

  flowtable::FlowTable* table_;
  const exec::CostModel* cost_;
  DpClassifierConfig config_;
  telemetry::Tracer* tracer_ = nullptr;
  const exec::Runtime* trace_clock_ = nullptr;
  std::uint16_t trace_track_ = 0;
  flowtable::ExactMatchCache emc_;
  MegaflowCache megaflow_;
  TierCounters counters_;
  std::uint64_t listener_token_ = 0;
  // Monotonic tallies of revalidation work, for delta-charging the cycle
  // meter: the megaflow side is read from megaflow_.stats(), the EMC side
  // accumulates in the events hook, and reval_seen_ is what
  // charge_reval_work has already billed.
  struct RevalWork {
    std::uint64_t scanned = 0;   ///< entries examined (megaflow + EMC)
    std::uint64_t repaired = 0;
    std::uint64_t evicted = 0;
    std::uint64_t term_tests = 0;       ///< merged-ADD-term intersect tests
    std::uint64_t prefilter_checks = 0; ///< revalidator Bloom consults
  };
  RevalWork emc_accum_;
  RevalWork reval_seen_;
  // Batch scratch (indices of EMC misses, gathered keys, megaflow
  // verdicts), kept across batches to avoid per-batch allocation.
  std::vector<std::uint32_t> batch_miss_;
  std::vector<pkt::FlowKey> batch_keys_;
  std::vector<RuleId> batch_rules_;
};

}  // namespace hw::classifier
