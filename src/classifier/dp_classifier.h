#pragma once

#include <cstdint>
#include <functional>
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
namespace hw::telemetry {
class MetricsRegistry;
}

/// \file dp_classifier.h
/// The full three-tier OVS-DPDK datapath classifier, one instance per
/// forwarding engine (like one EMC + dpcls pair per PMD thread):
///
///   1. exact-match cache   — O(1) direct-mapped, full-key compare;
///   2. megaflow cache      — tuple-space search over masked keys, each
///                            subtable indexed by a two-choice cuckoo
///                            table whose buckets are 16-lane blocks of
///                            16-bit signatures (hw::simd): a probe reads
///                            at most two blocks at any population (plus
///                            an overflow stash for keys sharing one full
///                            hash), and full-compares only signature
///                            matches;
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
/// drain folds the whole pending event burst into one pass over the
/// suspects of both cache tiers (suspect entries re-looked-up and
/// repaired or evicted; untouched entries keep serving), with per-rule
/// generation stamps (EMC) and per-entry version stamps (megaflow) as the
/// safety net. Each tier finds its suspects through revalidation indexes
/// (openflow::ShapeIndexSet) rather than by testing every entry. A stale
/// rule is therefore never served, a FlowMod no longer costs the whole
/// cache, and a burst of N FlowMods costs one pass instead of N. Cost is
/// charged per index probe, per entry examined and per repair/evict
/// (exec::CostModel), mirroring how empirical OVS delay models attribute
/// cache-maintenance cost under control-plane churn.

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
///
/// Each counter is declared once, here, as X(field, bench column);
/// docs/COUNTERS.md says when each one increments. The column is the
/// google-benchmark counter `export_counters` (bench/bench_common.h)
/// publishes the field's window delta under, or nullptr when no bench
/// table carries it. TierCounters' fields, its `+=` and `-`, and
/// kTierCounterFields all expand from this list.
#define HW_TIER_COUNTERS(X)                          \
  X(emc_hits, "emc_hits")                            \
  X(emc_misses, nullptr)                             \
  X(megaflow_hits, "mf_hits")                        \
  X(megaflow_misses, nullptr)                        \
  X(megaflow_inserts, "mf_inserts")                  \
  X(megaflow_invalidations, "mf_invalidations")      \
  X(megaflow_revalidations, "mf_revalidations")      \
  X(megaflow_revalidation_evictions, nullptr)        \
  X(emc_revalidations, nullptr)                      \
  X(slow_path_lookups, "slow_lookups")               \
  X(slow_path_misses, nullptr)                       \
  X(sig_hits, "sig_hits")                            \
  X(sig_false_positives, "sig_fp")                   \
  X(batches, "batches")                              \
  X(batch_packets, nullptr)                          \
  X(reval_batches, "reval_batches")                  \
  X(reval_entries_scanned, "reval_scanned")          \
  X(reval_coalesced_events, "reval_coalesced")       \
  /* always 0: no sizer retargets the cap; hostbench still reads it */ \
  X(cache_resizes, nullptr)                          \
  X(simd_blocks, "simd_blocks")                      \
  /* revalidation-index outcomes per subtable; hostbench reads both */ \
  X(subtables_skipped, "subt_skipped")               \
  X(prefilter_false_positives, "prefilter_fp")

struct TierCounters {
#define HW_TIER_FIELD(field, column) std::uint64_t field = 0;
  HW_TIER_COUNTERS(HW_TIER_FIELD)
#undef HW_TIER_FIELD

  TierCounters& operator+=(const TierCounters& other) noexcept;
  /// Window delta: what was counted since the snapshot `since`.
  [[nodiscard]] TierCounters operator-(const TierCounters& since)
      const noexcept;
};

/// One entry of HW_TIER_COUNTERS: the field's name, its bench column
/// (nullptr when unpublished) and the member it names.
struct TierCounterField {
  const char* name;
  const char* column;
  std::uint64_t TierCounters::*member;
};

/// Every tier counter, in declaration order.
inline constexpr TierCounterField kTierCounterFields[] = {
#define HW_TIER_ENTRY(field, column) {#field, column, &TierCounters::field},
    HW_TIER_COUNTERS(HW_TIER_ENTRY)
#undef HW_TIER_ENTRY
};

inline TierCounters& TierCounters::operator+=(
    const TierCounters& other) noexcept {
  for (const TierCounterField& f : kTierCounterFields) {
    this->*f.member += other.*f.member;
  }
  return *this;
}

inline TierCounters TierCounters::operator-(
    const TierCounters& since) const noexcept {
  TierCounters out = *this;
  for (const TierCounterField& f : kTierCounterFields) {
    out.*f.member -= since.*f.member;
  }
  return out;
}

/// Registers the `dp.emc_hit_rate` and `dp.megaflow_hit_rate` gauges:
/// at each sample, the EMC / megaflow share of the lookups `source`
/// counted since the previous sample (a window delta, so a cache
/// collapse shows as a dip instead of being averaged away).
void register_hit_rate_gauges(telemetry::MetricsRegistry& registry,
                              const std::function<TierCounters()>& source);

/// The tier switches, for the classifier-level ablations (A7 turns
/// tiers off; A8 and A9 turn the EMC off to isolate the megaflow tier)
/// and the classifier tests. Every forwarding engine runs the defaults,
/// all three tiers on. Everything else is a constant:
/// DpClassifier::kEmcBuckets, MegaflowCache's k* members and the flow
/// limit (MegaflowCacheConfig's default).
struct DpClassifierConfig {
  bool emc_enabled = true;
  bool megaflow_enabled = true;
};

class DpClassifier {
 public:
  /// Exact-match cache slots (direct-mapped, like OVS's per-PMD EMC).
  static constexpr std::size_t kEmcBuckets = 4096;

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

  /// The tier counters as of now: the tallies this classifier keeps,
  /// plus the cache-owned ones read from megaflow_.stats() (and the
  /// EMC's scanned slots) at the call, so no lookup copies them.
  [[nodiscard]] TierCounters counters() const noexcept;
  [[nodiscard]] const flowtable::ExactMatchCache& emc() const noexcept {
    return emc_;
  }
  [[nodiscard]] const MegaflowCache& megaflow() const noexcept {
    return megaflow_;
  }

 private:
  /// Re-runs the wildcard lookup for `key`: the table's first match, and
  /// the unwildcard set of every rule OVS's priority-order scan examines
  /// up to it, one read of FlowTable::unwildcarded(). `visited` receives
  /// that count of rules. Shared by tier 3 and the resolver the
  /// revalidator repairs megaflows with.
  MegaflowCache::Resolution resolve(const pkt::FlowKey& key,
                                    std::uint32_t* visited) noexcept;
  /// Applies pending FlowMod events to both cache tiers (owner thread).
  void drain_table_changes(exec::CycleMeter& meter);
  /// Charges `meter` for any revalidation work performed since the last
  /// call (per entry examined + per repair/evict, both tiers — including
  /// drains triggered inside megaflow lookup/insert).
  void charge_reval_work(exec::CycleMeter& meter);
  /// Converts a megaflow probe tally into cycles (single-key or batched
  /// per-subtable base; bucket-read and compare charges are shared).
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
  /// The tallies counted here; counters() adds the cache-owned rest.
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
    std::uint64_t term_tests = 0;    ///< merged-ADD-term intersect tests
    std::uint64_t index_probes = 0;  ///< revalidation-index buckets looked up
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
