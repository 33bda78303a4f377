#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "classifier/mask.h"
#include "common/simd.h"
#include "common/types.h"
#include "flowtable/flow_table.h"
#include "pkt/flow_key.h"

/// \file megaflow.h
/// Tuple-space-search megaflow cache — the middle tier of the OVS-DPDK
/// datapath classifier (dpcls). One subtable per distinct wildcard mask;
/// lookups probe subtables in descending hit-EWMA order (periodically
/// re-ranked, like OVS's per-PMD subtable sorting) and compare masked
/// keys.
///
/// Signature acceleration: each subtable keeps a contiguous array of
/// 16-bit signatures (hash fingerprints of the *masked* keys) parallel to
/// its entry slots, padded to a 16-lane block multiple. A probe scans the
/// signature array first — one real SIMD compare per 16-entry block
/// (SSE2/NEON via hw::simd, with a portable scalar loop as the build-time
/// fallback and `sig_scan_mode` as the runtime ablation knob) — and runs
/// the full masked compare only on signature matches, so a probe that
/// misses touches one contiguous array instead of N candidate entries.
/// Classification is batched (lookup_batch): each subtable is probed for
/// the whole batch in one pass, amortizing rank dispatch and EWMA
/// accounting, which is how DPDK's dpcls keeps up with line rate once the
/// EMC thrashes. A one-key lookup() is a batch of one.
///
/// Subtable prefilter: each subtable additionally maintains a counting
/// Bloom summary of its contents — masked-key signatures, rule ids, and
/// exact-field values — so a probe (or the revalidator's suspect scan,
/// below) can skip a whole subtable that provably cannot contain a
/// matching entry (or a suspect) without touching its arrays. The filter
/// is *counting*, updated on every insert/erase/repair, so it has no
/// false negatives by construction: a skip is always sound, and the only
/// cost of a collision is a wasted scan (counted as
/// `prefilter_false_positives`).
///
/// Staleness is handled by an OVS-style *revalidator* instead of a
/// whole-cache flush: FlowTable change notifications arrive as structured
/// TableChangeEvents in a bounded queue (any thread), and the cache
/// owner's next lookup or insert drains it, re-checking only the entries
/// the changes could affect — repairing them in place when the
/// re-lookup's unwildcard set still fits the subtable mask, evicting them
/// otherwise.
///
/// Drains are *coalescing*: the whole pending queue is folded into one
/// plan (DELETE rule-id sets unioned, overlapping ADD matches merged via
/// containment) and applied in a single suspect scan over the cache, so a
/// burst of N FlowMods costs one O(entries) pass instead of N — the
/// single-threaded analogue of OVS's dedicated revalidator threads, which
/// wake on a cadence and sweep the whole burst at once. Cost is charged
/// per entry examined (see exec::CostModel), not per event.
///
/// Queue overflow falls back to a full flush (counted separately), and a
/// per-entry version stamp remains the safety net for version skew the
/// queue has not explained.
///
/// Sizing follows the measured working set: an EWMA of distinct entries
/// touched per sizing window drives the effective entry cap between
/// `min_entries` and `max_entries` (`auto_size`), shedding cold entries
/// when the working set shrinks so revalidator scans stay proportional
/// to what the traffic actually uses.

namespace hw::classifier {

/// How a probe scans a subtable's signature array. kAuto resolves to the
/// SIMD backend compiled into this binary (simd::kSimdCompiledIn) and to
/// the portable loop otherwise; kScalar forces the portable loop at
/// runtime (the ablation baseline); kSimd requests the vector path and
/// silently degrades to scalar in a -DHW_FORCE_SCALAR (or no-SIMD) build.
/// All three produce bit-identical results — only the cost differs.
enum class SigScanMode : std::uint8_t { kAuto = 0, kSimd = 1, kScalar = 2 };

struct MegaflowStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;            ///< fresh masked keys installed
  std::uint64_t overwrites = 0;         ///< re-install onto an existing key
  std::uint64_t subtables_probed = 0;   ///< total probes across lookups
  std::uint64_t sig_hits = 0;           ///< signature match confirmed by full compare
  std::uint64_t sig_false_positives = 0;///< signature matched, full compare failed
  std::uint64_t stale_evictions = 0;    ///< entries dropped on version skew
  std::uint64_t capacity_evictions = 0; ///< entries dropped at the cap
  std::uint64_t flushes = 0;            ///< full-cache flushes applied
  std::uint64_t queue_overflows = 0;    ///< event-queue overflow fallbacks
  std::uint64_t reranks = 0;            ///< subtable re-sort rounds
  std::uint64_t revalidations = 0;      ///< suspect entries re-checked
  std::uint64_t revalidated_kept = 0;   ///< repaired in place
  std::uint64_t revalidated_evicted = 0;///< evicted by the revalidator
  std::uint64_t subtables_pruned = 0;   ///< empty subtables removed
  // Coalescing-revalidator telemetry (see docs/COUNTERS.md).
  std::uint64_t reval_batches = 0;         ///< suspect-scan passes executed
  std::uint64_t reval_entries_scanned = 0; ///< entries examined by scans
  std::uint64_t reval_coalesced_events = 0;///< events folded into a shared pass
  std::uint64_t cache_resizes = 0;         ///< effective-capacity changes
  // SIMD-scan + subtable-prefilter telemetry (see docs/COUNTERS.md).
  std::uint64_t simd_blocks = 0;           ///< 16-signature SIMD blocks scanned
  std::uint64_t subtables_skipped = 0;     ///< whole-subtable prefilter skips
  std::uint64_t prefilter_false_positives = 0; ///< Bloom passed, scan found nothing
  std::uint64_t reval_term_tests = 0;      ///< per-entry merged-ADD-term intersect tests
  std::uint64_t reval_prefilter_checks = 0;///< Bloom consults by suspect-scan skips
};

struct MegaflowCacheConfig {
  std::size_t max_entries = 1u << 16;  ///< total across subtables
  /// Lookups between subtable re-ranking rounds. Each round folds the
  /// window's hit count into a per-subtable EWMA (OVS's pmd-rxq-style
  /// auto-sorting) so the probe order tracks the current traffic mix
  /// without a hard half-life cliff.
  std::uint32_t rank_interval = 1024;
  /// EWMA weight of the newest window when re-ranking, in [0, 1].
  double rank_ewma_alpha = 0.25;
  /// How the signature array is scanned: real SIMD (SSE2/NEON) or the
  /// portable scalar loop. kAuto picks whatever this binary compiled in.
  SigScanMode sig_scan_mode = SigScanMode::kAuto;
  /// Consult each subtable's counting-Bloom summary before scanning it —
  /// a probe skips subtables that provably lack the masked key, and the
  /// revalidator skips subtables no merged plan term (removed rule id or
  /// ADD-mask exact-field value) can touch. False = always scan (the
  /// ablation baseline).
  bool subtable_prefilter = true;
  /// Bounded revalidator queue; overflowing falls back to a full flush.
  std::size_t revalidator_queue_limit = 128;
  /// Working-set-driven sizing: the effective entry cap follows an EWMA
  /// of distinct entries touched per `size_interval` lookups, scaled by
  /// `size_headroom`, clamped to [min_entries, max_entries] and rounded
  /// up to a power of two. Shrinking sheds the coldest entries.
  bool auto_size = true;
  std::size_t min_entries = 1024;
  double size_headroom = 2.0;
  double size_ewma_alpha = 0.25;
  std::uint32_t size_interval = 4096;  ///< lookups per sizing window
};

/// Work tallies of one (or one batch of) megaflow lookups — the cost
/// drivers the caller converts to cycles. Fields accumulate; snapshot
/// before the call to charge per-call deltas.
struct ProbeTally {
  std::uint32_t probes = 0;         ///< per-key subtable probes
  std::uint32_t sig_blocks = 0;     ///< 16-signature SIMD blocks scanned
  std::uint32_t sig_scalar = 0;     ///< scalar signature compares (portable scan)
  std::uint32_t full_compares = 0;  ///< full masked-key compares
  std::uint32_t prefilter_checks = 0; ///< subtable-Bloom consults
};

/// 16-bit hash fingerprint of a *masked* key — the per-entry signature
/// scanned ahead of any full compare. It MUST be computed from the masked
/// key (mask applied before hashing): the stored slot key is the masked
/// key and never changes across a repair-in-place, so the signature can
/// never go stale under revalidation. Hashing the raw key instead would
/// leave lookups (which only have the masked projection) unable to find
/// repaired entries.
[[nodiscard]] inline std::uint16_t flow_signature(
    const pkt::FlowKey& masked) noexcept {
  const std::uint32_t h = pkt::flow_key_hash(masked);
  return static_cast<std::uint16_t>(h ^ (h >> 16));
}

class MegaflowCache {
 public:
  using Config = MegaflowCacheConfig;

  /// Result of re-running the wildcard lookup for one masked key: the
  /// winning rule (if any) and the unwildcard set the scan accumulated.
  ///
  /// REPAIR-VS-EVICT CONTRACT: a suspect entry is repaired in place only
  /// when `found` and `unwildcarded` is subsumed by the entry's subtable
  /// mask — then every key in the entry's cover set provably resolves to
  /// the same new winner, so rewriting rule/version is sound. A wider
  /// unwildcard set (or no winner) means the cover set is no longer
  /// uniform: the entry is evicted and the slow path carves finer
  /// megaflows on demand. A repair NEVER rewrites the stored masked key,
  /// which is what keeps the signature invariant below intact.
  struct Resolution {
    bool found = false;
    RuleId rule = kRuleNone;
    MaskSpec unwildcarded;
  };
  /// Owner-supplied slow-path re-lookup used to repair suspect entries.
  using Resolver = std::function<Resolution(const pkt::FlowKey&)>;

  /// What one drain of the event queue did (the caller charges its cycle
  /// meter from these and the hooks see the same `events` batch).
  struct RevalidateReport {
    std::size_t events = 0;           ///< events drained and processed
    std::size_t revalidated = 0;      ///< suspect entries re-checked
    std::size_t entries_scanned = 0;  ///< entries the suspect scan examined
    std::size_t repaired = 0;         ///< suspects repaired in place
    std::size_t evicted = 0;          ///< suspects evicted
    std::size_t batches = 0;          ///< suspect-scan passes (0 or 1)
    std::size_t term_tests = 0;       ///< per-entry merged-ADD-term tests
    std::size_t subtables_skipped = 0;///< whole subtables the prefilter skipped
    bool flushed = false;             ///< full flush applied (queue overflow)
  };

  explicit MegaflowCache(Config config = {})
      : config_(config), effective_capacity_(config.max_entries) {}

  MegaflowCache(const MegaflowCache&) = delete;
  MegaflowCache& operator=(const MegaflowCache&) = delete;

  /// Batched lookup: drains pending change events, then probes each
  /// subtable (rank order) for every still unresolved key of the batch
  /// before moving to the next subtable, so rank dispatch and EWMA
  /// accounting are paid once per batch instead of once per packet.
  /// `out[i]` receives the rule for `keys[i]` (kRuleNone on miss). Only
  /// entries provably current are served: revalidated up to
  /// `table_version` or installed at exactly that version; unproven
  /// entries found along the way are evicted, never returned. `tally`
  /// accumulates the probe / signature-scan / compare work, which the
  /// caller converts to cycles on its meter.
  void lookup_batch(std::span<const pkt::FlowKey> keys,
                    std::uint64_t table_version, std::span<RuleId> out,
                    ProbeTally& tally);

  /// One-key lookup: a batch of one.
  [[nodiscard]] RuleId lookup(const pkt::FlowKey& key,
                              std::uint64_t table_version, ProbeTally& tally) {
    RuleId rule = kRuleNone;
    lookup_batch({&key, 1}, table_version, {&rule, 1}, tally);
    return rule;
  }

  /// Compatibility shim reporting only the subtable-probe count.
  [[nodiscard]] RuleId lookup(const pkt::FlowKey& key,
                              std::uint64_t table_version,
                              std::uint32_t& probed) {
    ProbeTally tally;
    const RuleId rule = lookup(key, table_version, tally);
    probed = tally.probes;
    return rule;
  }

  /// Installs `key` → `rule` under `mask` (the slow path's accumulated
  /// unwildcard set), stamped with the current table version.
  void insert(const pkt::FlowKey& key, const MaskSpec& mask, RuleId rule,
              std::uint64_t table_version);

  /// Flow-table change notification: queues the event for the owner
  /// thread's revalidator. Safe to call from a control thread while a PMD
  /// thread is probing — the queue is mutex-guarded and the hot path only
  /// checks one relaxed atomic when the queue is empty.
  void on_table_change(const flowtable::TableChangeEvent& event);

  /// Registers the owner's revalidation hooks: the resolver used to
  /// repair suspect megaflows, a batch sink handed every drained event
  /// batch (e.g. exact-match-cache revalidation, coalesced the same way)
  /// and a flush sink (e.g. EMC clear on the overflow fallback). Once
  /// set, EVERY drain — including the implicit ones in lookup_batch() and
  /// insert() — routes through them, so no change event can be consumed
  /// without the owner's other tiers seeing it. Without hooks (standalone
  /// use) suspects are simply evicted.
  void set_revalidation_hooks(
      Resolver resolver,
      std::function<void(std::span<const flowtable::TableChangeEvent>)>
          events_sink,
      std::function<void()> flush_sink);

  /// Owner thread: drains ALL queued events in one coalesced pass,
  /// revalidates affected megaflows and feeds the drained batch (and any
  /// flush) to the registered hooks. lookup_batch() and insert() call it
  /// first; a no-op when nothing is queued.
  RevalidateReport revalidate();

  [[nodiscard]] bool has_pending_changes() const noexcept {
    return events_pending_.load(std::memory_order_relaxed);
  }

  /// Current effective entry cap (== config.max_entries unless auto_size
  /// has resized it).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return effective_capacity_;
  }

  [[nodiscard]] const MegaflowStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_; }
  [[nodiscard]] std::size_t subtable_count() const noexcept {
    return subtables_.size();
  }
  /// Masks in current probe order (rank-descending); for tests/diagnostics.
  [[nodiscard]] std::vector<MaskSpec> subtable_masks() const;

 public:
  /// Counting Bloom summary of (part of) one subtable's contents. Two
  /// counter positions per fingerprint; add/remove are exact inverses, so
  /// `may_contain` can never answer "absent" for a fingerprint that is
  /// still present (no false negatives — a skip is always sound). The
  /// fingerprint spaces (masked-key signature, rule id, exact-field
  /// value) are tag-separated before mixing. The bucket count is a power
  /// of two sized relative to the subtable's population (the owner
  /// rebuilds on growth, see maybe_grow_blooms) — a fixed-size filter
  /// would saturate at high fill and silently stop skipping.
  class SubtableBloom {
   public:
    static constexpr std::size_t kMinBuckets = 256;

    explicit SubtableBloom(std::size_t buckets = kMinBuckets)
        : counts_(buckets) {}

    void add(std::uint32_t fp) noexcept {
      ++counts_[pos1(fp)];
      ++counts_[pos2(fp)];
    }
    void remove(std::uint32_t fp) noexcept {
      --counts_[pos1(fp)];
      --counts_[pos2(fp)];
    }
    [[nodiscard]] bool may_contain(std::uint32_t fp) const noexcept {
      return counts_[pos1(fp)] != 0 && counts_[pos2(fp)] != 0;
    }
    [[nodiscard]] std::size_t buckets() const noexcept {
      return counts_.size();
    }
    /// Drops every fingerprint and retargets the bucket count (a power
    /// of two); the owner re-adds the live population afterwards.
    void reset(std::size_t buckets) {
      counts_.assign(buckets, 0);
    }

   private:
    // splitmix32 finalizer: cheap, good avalanche over tagged inputs.
    [[nodiscard]] static std::uint32_t mix(std::uint32_t x) noexcept {
      x ^= x >> 16;
      x *= 0x7feb352du;
      x ^= x >> 15;
      x *= 0x846ca68bu;
      x ^= x >> 16;
      return x;
    }
    [[nodiscard]] std::size_t pos1(std::uint32_t fp) const noexcept {
      return mix(fp) & (counts_.size() - 1);
    }
    [[nodiscard]] std::size_t pos2(std::uint32_t fp) const noexcept {
      return mix(fp ^ 0x9e3779b9u) & (counts_.size() - 1);
    }
    // 32-bit counters: repeated IDENTICAL fingerprints all land on the
    // same two buckets (e.g. a subtable masked on eth_type adds one
    // fp_field(kMatchEthType, 0x0800) per entry — 64k entries means a
    // 64k count), so the counter width must cover the max entry count,
    // not just hash collisions. A 16-bit counter would wrap to zero
    // there and turn into a false negative — an unsound skip.
    std::vector<std::uint32_t> counts_;
  };

  // Tag-separated Bloom fingerprint constructors.
  [[nodiscard]] static std::uint32_t fp_signature(std::uint16_t sig) noexcept {
    return 0x53490000u | sig;  // "SI" | signature
  }
  [[nodiscard]] static std::uint32_t fp_rule(RuleId rule) noexcept {
    return 0xa5000000u ^ (rule * 2654435761u);
  }
  [[nodiscard]] static std::uint32_t fp_field(std::uint32_t field,
                                              std::uint32_t value) noexcept {
    return (field * 0x01000193u) ^ (value * 2654435761u) ^ 0x46440000u;
  }

 private:
  static constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

  /// One megaflow entry. `key` is the MASKED key (the mask was applied
  /// before storing), so `sigs[i] == flow_signature(slots[i].key)` holds
  /// for the subtable's whole lifetime — including across repair-in-place,
  /// which rewrites rule/version but never the key.
  struct Slot {
    pkt::FlowKey key;
    RuleId rule = kRuleNone;
    std::uint64_t version = 0;     ///< install/repair version
    std::uint32_t touch_epoch = 0; ///< last sizing window this entry hit in
  };
  struct Subtable {
    explicit Subtable(MaskSpec m) : mask(m) {}
    MaskSpec mask;
    /// Contiguous signature array, parallel to `slots` but padded with
    /// zeros to a 16-lane block multiple so the SIMD scan can always
    /// load full blocks; padding lanes are masked off before use.
    std::vector<std::uint16_t> sigs;
    std::vector<Slot> slots;
    std::uint64_t window_hits = 0;  ///< hits in the current rank window
    double rank = 0.0;              ///< hit EWMA across rank windows
    /// Counting summaries the prefilter consults to skip this subtable:
    /// key_bloom holds the masked-key signatures (probe skip),
    /// plan_bloom the rule ids and exact-field values (revalidator
    /// skip). Split so neither test pays the other's load, both resized
    /// with the population (maybe_grow_blooms).
    SubtableBloom key_bloom;
    SubtableBloom plan_bloom;

    /// Index of the slot whose masked key equals `masked`, or kNpos.
    /// Scans `sigs` first (SIMD blocks when `simd`, scalar compares
    /// otherwise) and full-compares signature matches only. Work is
    /// tallied into `tally`.
    [[nodiscard]] std::size_t find(const pkt::FlowKey& masked,
                                   std::uint16_t sig, bool simd,
                                   ProbeTally& tally) const;
    /// Appends `sig` for the slot just pushed onto `slots`, keeping the
    /// block padding invariant.
    void sig_push(std::uint16_t sig);
    /// Swap-with-last removal keeping sigs/slots parallel, dense and
    /// block-padded, and the Bloom summary exact.
    void erase_at(std::size_t index);
    // Bloom bookkeeping: every slot's fingerprints (signature, rule id,
    // exact-field values under this subtable's mask) enter on insert and
    // leave on erase; a repair/overwrite swaps only the rule fingerprint.
    void bloom_add_slot(const Slot& slot);
    void bloom_remove_slot(const Slot& slot);
    void bloom_update_rule(RuleId old_rule, RuleId new_rule);
    /// Keeps the filters ≥ 16 buckets per slot (growing to 32× for
    /// hysteresis): rebuilds both from the live slots when the
    /// population outgrows them, so skip efficacy survives high fill.
    void maybe_grow_blooms();
  };

  /// Resolves the configured sig_scan_mode against what this binary
  /// compiled in — the single definition shared by lookups and the
  /// insert dup-scan.
  [[nodiscard]] bool use_simd_scan() const noexcept {
    return config_.sig_scan_mode != SigScanMode::kScalar &&
           simd::kSimdCompiledIn;
  }
  /// True iff some entry of `subtable` could intersect `match` — the
  /// subtable-level projection of the per-entry may_intersect test,
  /// answered from the Bloom summary's exact-field values alone
  /// (conservative: true whenever no common exact field can refute).
  [[nodiscard]] static bool subtable_may_intersect(
      const Subtable& subtable, const openflow::Match& match,
      std::uint64_t& checks);

  /// Probes one subtable for `key`, tallying work and signature stats.
  [[nodiscard]] std::size_t probe_subtable(const Subtable& subtable,
                                           const pkt::FlowKey& masked,
                                           ProbeTally& tally);
  void maybe_rerank(std::uint32_t lookups);
  /// Working-set sizing: every size_interval lookups, fold the window's
  /// distinct-touch count into the EWMA and retarget the effective cap.
  void maybe_resize(std::uint32_t lookups);
  /// Marks a served entry touched in the current sizing window.
  void touch(Slot& slot) noexcept {
    if (slot.touch_epoch != size_epoch_) {
      slot.touch_epoch = size_epoch_;
      ++window_distinct_;
    }
  }
  /// Coalesced pass: one suspect scan applying every drained event.
  void revalidate_coalesced(std::span<const flowtable::TableChangeEvent> events,
                            const Resolver* resolver,
                            RevalidateReport& report);
  void flush_all();
  void prune_empty_subtables();
  Subtable& subtable_for(const MaskSpec& mask);
  /// Evicts one entry, preferring the coldest subtable but never the
  /// freshly appended entry at the back of `protect` (pass nullptr when
  /// no entry needs protecting, e.g. a sizing trim).
  void evict_one(const Subtable* protect);

  Config config_;
  Resolver resolver_;  ///< empty: evict suspects instead of repairing
  std::function<void(std::span<const flowtable::TableChangeEvent>)>
      events_sink_;
  std::function<void()> flush_sink_;
  // Probe order == rank order (EWMA descending after each re-rank).
  std::vector<std::unique_ptr<Subtable>> subtables_;
  std::size_t entries_ = 0;
  std::uint32_t lookups_since_rerank_ = 0;
  MegaflowStats stats_;
  // Scratch for lookup_batch (indices of still-unresolved keys), kept
  // across calls to avoid per-batch allocation.
  std::vector<std::uint32_t> batch_pending_;
  // Scratch for the coalesced drain plan. Capacity is kept across
  // drains to avoid reallocation, but plan_adds_ holds pointers into
  // the drain's local event batch and is therefore always cleared
  // before revalidate_coalesced() returns — never read it elsewhere.
  std::vector<RuleId> plan_removed_;
  std::vector<const openflow::Match*> plan_adds_;

  // Working-set sizing state (auto_size): distinct entries touched per
  // window, its EWMA, and the resulting effective cap.
  std::size_t effective_capacity_ = 0;  ///< set from config in ctor
  std::uint32_t size_epoch_ = 1;
  std::uint32_t lookups_since_resize_ = 0;
  std::size_t window_distinct_ = 0;
  double working_set_ewma_ = 0.0;
  /// Clock hand for capacity eviction: spreads victims across a
  /// subtable's slots (see evict_one) instead of eating the swap-filled
  /// tail, which holds the newest — i.e. live — entries under churn.
  std::size_t evict_cursor_ = 0;

  // Revalidator state. The queue is written by on_table_change (any
  // thread) and drained on the owner's thread; events_pending_ keeps the
  // hot path to one relaxed load when nothing is queued. synced_version_
  // is the table version the surviving entries are proven current for.
  std::mutex queue_mutex_;
  std::vector<flowtable::TableChangeEvent> queue_;
  bool queue_overflowed_ = false;
  std::uint64_t overflow_version_ = 0;
  std::atomic<bool> events_pending_{false};
  std::uint64_t synced_version_ = 0;
};

}  // namespace hw::classifier
