#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
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
/// Cuckoo index: each subtable keeps its entries in a dense `slots`
/// array and indexes them with a two-choice bucketed cuckoo table, the
/// structure OVS-DPDK's dpcls subtables (`cmap`) use. A bucket is one
/// 16-lane hw::simd block of 16-bit signatures (hash fingerprints of the
/// *masked* keys) plus the 16 slot indices they stand for. A key lives in
/// one of two buckets derived from its masked-key hash, so a probe reads
/// at most two blocks at any population (one while the subtable fits one
/// bucket) and runs the full masked compare only on signature matches.
/// The index grows with the population alone. An entry whose cuckoo walk
/// fails (in practice: more keys share one hash than two buckets hold,
/// which no table size separates) goes to an overflow stash behind the
/// table, and only probes starting at that entry's first bucket scan it.
/// Classification is batched (lookup_batch): each subtable is probed for
/// the whole batch in one pass, amortizing rank dispatch and EWMA
/// accounting, which is how DPDK's dpcls keeps up with line rate once the
/// EMC thrashes. A one-key lookup() is a batch of one.
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
/// containment) and applied in one pass over the suspects, so a burst of
/// N FlowMods costs one pass instead of N — the single-threaded analogue
/// of OVS's dedicated revalidator threads, which wake on a cadence and
/// sweep the whole burst at once. Cost is charged per entry examined (see
/// exec::CostModel), not per event. The merged ADD terms are compiled
/// once per subtable (compile_intersect), so an entry's suspect test is a
/// few masked word compares over its packed key rather than a branch per
/// field.
///
/// Revalidation index: a drain finds the entries it examines by lookup,
/// not by a scan. Each subtable keeps an openflow::ShapeIndexSet: up to
/// four indexes, one per test shape its drains needed lately, each
/// bucketing the slots by their packed key under that shape. An ADD
/// term's candidates are the one bucket of its compiled intersect test.
/// A DELETE looks up its own match the same way: an entry of a removed
/// rule lies inside that match, because the entry's mask pins every field
/// of its rule (the slow path's unwildcard set holds the winner's fields,
/// and a repair requires it) and a DELETE's match contains every rule it
/// removes (Match::contains, or identity for DELETE_STRICT). The compiled
/// suspect test then filters the candidates, so the suspects are exactly
/// those a scan of every entry would find, and they are processed in the
/// order such a scan meets them (see revalidate_subtable). The first
/// drain that needs a shape a subtable has no index for passes over all
/// of its entries, as a scan would, and builds the index afterwards.
/// Subtables with no index pay one `empty()` test per slot change.
///
/// Queue overflow falls back to a full flush (counted separately), and a
/// per-entry version stamp remains the safety net for version skew the
/// queue has not explained.
///
/// Flow limit: the cache holds at most `max_entries` entries (OVS's
/// `flow-limit`). An insert past it evicts one entry from the coldest
/// subtable, chosen by a second-chance clock hand (evict_one). Probes
/// cost the same at any population; more cached megaflows mean more real
/// suspects for a drain to re-resolve, and a longer pass for a drain
/// that builds an index.

namespace hw::classifier {

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
  std::uint64_t reval_batches = 0;         ///< suspect passes executed (drains)
  std::uint64_t reval_entries_scanned = 0; ///< entries examined by drains
  std::uint64_t reval_coalesced_events = 0;///< events folded into a shared pass
  // Cuckoo-probe + revalidation-index telemetry (see docs/COUNTERS.md).
  std::uint64_t simd_blocks = 0;           ///< 16-signature buckets read by probes
  std::uint64_t subtables_skipped = 0;     ///< subtables a drain's index probes found empty
  std::uint64_t prefilter_false_positives = 0; ///< subtables examined with no suspect found
  std::uint64_t reval_term_tests = 0;      ///< per-entry merged-ADD-term intersect tests
  std::uint64_t reval_index_probes = 0;    ///< revalidation-index buckets looked up
};

struct MegaflowCacheConfig {
  /// Entry cap across subtables (OVS's `flow-limit`): an insert past it
  /// evicts one entry (see evict_one).
  std::size_t max_entries = 1u << 13;
};

/// Work tallies of one (or one batch of) megaflow lookups — the cost
/// drivers the caller converts to cycles. Fields accumulate; snapshot
/// before the call to charge per-call deltas.
struct ProbeTally {
  std::uint32_t probes = 0;         ///< per-key subtable probes
  std::uint32_t sig_blocks = 0;     ///< 16-signature buckets read
  std::uint32_t full_compares = 0;  ///< full masked-key compares
};

/// 16-bit fingerprint of a *masked* key's flow_key_hash — the per-entry
/// signature compared ahead of any full compare. The hash MUST be of the
/// masked key (mask applied before hashing): the stored slot key is the
/// masked key and never changes across a repair-in-place, so neither the
/// signature nor the two buckets the hash selects can go stale under
/// revalidation. Hashing the raw key instead would leave lookups (which
/// only have the masked projection) unable to find repaired entries.
[[nodiscard]] inline std::uint16_t flow_signature(std::uint32_t hash) noexcept {
  return static_cast<std::uint16_t>(hash ^ (hash >> 16));
}

/// splitmix32 finalizer: cheap, good avalanche. Picks a key's second
/// cuckoo bucket.
[[nodiscard]] inline std::uint32_t mix32(std::uint32_t x) noexcept {
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
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
    std::size_t entries_scanned = 0;  ///< entries the drain examined
    std::size_t repaired = 0;         ///< suspects repaired in place
    std::size_t evicted = 0;          ///< suspects evicted
    std::size_t batches = 0;          ///< suspect passes (0 or 1)
    std::size_t term_tests = 0;       ///< per-entry merged-ADD-term tests
    std::size_t index_probes = 0;     ///< revalidation-index buckets looked up
    std::size_t subtables_skipped = 0;///< subtables whose probes found no entry
    bool flushed = false;             ///< full flush applied (queue overflow)
  };

  /// Lookups between subtable re-ranking rounds. Each round folds the
  /// window's hit count into a per-subtable EWMA (OVS's pmd-rxq-style
  /// auto-sorting) so the probe order tracks the current traffic mix
  /// without a hard half-life cliff.
  static constexpr std::uint32_t kRankInterval = 1024;
  /// Bounded revalidator queue; overflowing falls back to a full flush.
  static constexpr std::size_t kRevalidatorQueueLimit = 128;
  /// Cuckoo index: an insert that finds both of its buckets full moves
  /// resident entries to their other bucket, at most this many times,
  /// before the entry the walk carries goes to the overflow stash.
  static constexpr std::uint32_t kCuckooKickLimit = 64;
  /// Cuckoo index load bound: the index doubles its buckets and re-places
  /// every slot before it would average more than this many of a bucket's
  /// 16 lanes (7/8 full), so a subtable of up to 14 entries is one bucket
  /// and one block read per probe. It is the only reason the index grows,
  /// so the index never outgrows its population.
  static constexpr std::size_t kBucketFillBound = 14;

  explicit MegaflowCache(Config config = {}) : config_(config) {}

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
  /// accumulates the probe / bucket-read / compare work, which the
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

  /// Installs `key` → `rule` under `mask` (the slow path's accumulated
  /// unwildcard set), stamped with the current table version.
  void insert(const pkt::FlowKey& key, const MaskSpec& mask, RuleId rule,
              std::uint64_t table_version);

  /// Flow-table change notification: queues the event for the owner
  /// thread's revalidator. The queue is mutex-guarded and the hot path
  /// only checks one relaxed atomic when it is empty, so the queue may be
  /// fed from another thread than the owner's. A FlowTable event,
  /// though, comes from FlowTable::apply(), which must not run beside
  /// the owner's lookups: the table's readers take no lock
  /// (flowtable/flow_table.h, threading contract). A DELETE's match
  /// must contain every rule it lists as removed, and each entry's mask
  /// must pin every field of its rule, as FlowTable events and the
  /// classifier's installs and repairs guarantee: the revalidator finds
  /// a removed rule's entries inside the DELETE's match.
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

  [[nodiscard]] const MegaflowStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_; }
  [[nodiscard]] std::size_t subtable_count() const noexcept {
    return subtables_.size();
  }
  /// Masks in current probe order (rank-descending); for tests/diagnostics.
  [[nodiscard]] std::vector<MaskSpec> subtable_masks() const;
  /// One cached entry: its subtable's mask, its masked key and its rule.
  struct EntryView {
    MaskSpec mask;
    pkt::FlowKey key;
    RuleId rule = kRuleNone;

    friend bool operator==(const EntryView&, const EntryView&) = default;
  };
  /// Every cached entry, subtable by subtable in probe order and slot
  /// order within each; for tests/diagnostics.
  [[nodiscard]] std::vector<EntryView> entries() const;

 private:
  static constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

  /// One megaflow entry. `key` is the MASKED key (the mask was applied
  /// before storing) and `hash` its flow_key_hash, so the entry's
  /// signature and buckets hold for the subtable's whole lifetime —
  /// including across repair-in-place, which rewrites rule/version but
  /// never the key. `hash` and `referenced` sit in what would be tail
  /// padding, so a slot is 40 B.
  struct Slot {
    pkt::FlowKey key;
    RuleId rule = kRuleNone;
    std::uint64_t version = 0;  ///< install/repair version
    std::uint32_t hash = 0;     ///< flow_key_hash(key)
    /// Hit since the clock hand last passed this entry (evict_one).
    bool referenced = false;
  };
  static_assert(sizeof(Slot) <= 40,
                "hash and referenced must fit the slot's padding");
  /// One cuckoo bucket (104 B): a 16-lane signature block and the slot
  /// index each lane stands for. `used` masks off empty lanes, whose
  /// signature and slot values mean nothing.
  struct Bucket {
    std::array<std::uint16_t, simd::kLanesU16> sigs{};
    std::uint32_t used = 0;  ///< bit i set: lane i holds a slot
    /// Table buckets only: an entry whose first bucket this is sits in
    /// the stash, so probes starting here scan the stash too.
    bool stashed = false;
    std::array<std::uint32_t, simd::kLanesU16> slot{};

    /// Takes a free lane for slot `index`, whose hash is `hash`; false
    /// when all 16 are in use.
    bool fill(std::uint32_t index, std::uint32_t hash) noexcept;
  };
  struct Subtable {
    explicit Subtable(MaskSpec m) : mask(m) {}
    MaskSpec mask;
    /// Dense entry array. Insert appends and erase swaps in the last
    /// slot, so slot order is independent of the index below.
    std::vector<Slot> slots;
    /// Two-choice cuckoo index over `slots`. Buckets [0, bucket_mask]
    /// are the table, a power-of-two count that only grows (an emptied
    /// subtable is pruned instead); any buckets after them are the
    /// overflow stash, refilled from scratch at every doubling.
    std::vector<Bucket> buckets = std::vector<Bucket>(1);
    std::size_t bucket_mask = 0;
    std::uint64_t window_hits = 0;  ///< hits in the current rank window
    double rank = 0.0;              ///< hit EWMA across rank windows
    /// Revalidation indexes over `slots`, keyed by slot position and
    /// kept exact by push and erase_at; repair and overwrite rewrite no
    /// key, so they leave it alone.
    openflow::ShapeIndexSet indexes;

    /// Index of the slot whose masked key equals `masked` (whose
    /// flow_key_hash is `hash`), or kNpos. Work is tallied into `tally`.
    [[nodiscard]] std::size_t find(const pkt::FlowKey& masked,
                                   std::uint32_t hash,
                                   ProbeTally& tally) const {
      const auto [b, lane] = locate(masked, hash, tally);
      return b == kNpos ? kNpos : buckets[b].slot[lane];
    }
    /// Indexes `slot`, appended as the new last slot: doubles the table
    /// first if the load bound requires it, then places the slot.
    void push(const Slot& slot);
    /// Swap-with-last removal keeping `slots` dense and both indexes
    /// pointing at the right slots (the moved slot is re-linked).
    void erase_at(std::size_t index);

   private:
    [[nodiscard]] std::size_t bucket1(std::uint32_t hash) const noexcept {
      return hash & bucket_mask;
    }
    [[nodiscard]] std::size_t bucket2(std::uint32_t hash) const noexcept {
      return mix32(hash) & bucket_mask;
    }
    static constexpr unsigned kNoLane = simd::kLanesU16;
    /// Lane of bucket `b` holding the entry keyed `masked` (signature
    /// `sig`), or kNoLane.
    [[nodiscard]] unsigned lane_in(std::size_t b, const pkt::FlowKey& masked,
                                   std::uint16_t sig, ProbeTally& tally) const;
    /// Index position (bucket, lane) of the entry keyed `masked`, or
    /// {kNpos, 0}. Reads the key's first bucket, then its second unless
    /// that is the same bucket, then the stash if the first bucket is
    /// flagged, and full-compares signature matches only.
    [[nodiscard]] std::pair<std::size_t, unsigned> locate(
        const pkt::FlowKey& masked, std::uint32_t hash,
        ProbeTally& tally) const;
    /// Places slot `index` without growing: a free lane of either bucket,
    /// else up to kCuckooKickLimit displacements; the entry the walk
    /// carries when it fails goes to the stash.
    void place(std::uint32_t index);
  };

  /// Probes one subtable for `masked`, tallying work and signature stats.
  [[nodiscard]] std::size_t probe_subtable(const Subtable& subtable,
                                           const pkt::FlowKey& masked,
                                           ProbeTally& tally);
  void maybe_rerank(std::uint32_t lookups);
  /// Coalesced pass: folds every drained event into one plan and
  /// revalidates each subtable's suspects (revalidate_subtable).
  void revalidate_coalesced(std::span<const flowtable::TableChangeEvent> events,
                            const Resolver* resolver,
                            RevalidateReport& report);
  /// One subtable's share of a drain, `drain` counting drains from 1:
  /// looks up its candidates (or takes every slot and builds the missing
  /// indexes after), then re-checks the suspects among them.
  void revalidate_subtable(Subtable& subtable, std::uint64_t drain,
                           std::uint64_t removed_bits,
                           std::uint64_t max_version, const Resolver* resolver,
                           RevalidateReport& report);
  void flush_all();
  void prune_empty_subtables();
  Subtable& subtable_for(const MaskSpec& mask);
  /// Evicts one entry, preferring the coldest subtable but never the
  /// freshly appended entry at the back of `protect`.
  void evict_one(const Subtable& protect);

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
  // drains to avoid reallocation, but plan_adds_ and plan_deletes_ hold
  // pointers into the drained batch (drained_) and are therefore always
  // cleared before revalidate_coalesced() returns — never read them
  // elsewhere.
  std::vector<RuleId> plan_removed_;
  std::vector<const openflow::Match*> plan_adds_;
  /// The matches of the DELETEs that removed a rule, in event order.
  std::vector<const openflow::Match*> plan_deletes_;
  /// The index queries for the subtable being revalidated, compiled for
  /// its mask (compile_intersect): first plan_adds_ (the merged ADD
  /// terms the suspect test runs), then plan_deletes_.
  std::vector<openflow::CompiledMatch> plan_queries_;
  /// That subtable's candidate slot positions, ascending.
  std::vector<std::uint32_t> reval_candidates_;
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
  /// The batch being drained (owner thread only). Its storage and the
  /// queue's trade places under queue_mutex_ at each drain, so both keep
  /// their capacity across drains.
  std::vector<flowtable::TableChangeEvent> drained_;
  bool queue_overflowed_ = false;
  std::uint64_t overflow_version_ = 0;
  std::atomic<bool> events_pending_{false};
  std::uint64_t synced_version_ = 0;
};

}  // namespace hw::classifier
