#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "openflow/messages.h"
#include "pkt/flow_key.h"

/// \file flow_table.h
/// The switch's flow table: a priority-ordered wildcard classifier with
/// OpenFlow add/modify/delete semantics and per-rule counters. This is the
/// structure the forwarding engine consults per packet and the p-2-p link
/// detector scans per FlowMod.
///
/// Change-event semantics (the contract every cache tier builds on):
/// `apply()` mutates the table synchronously, bumps the monotonic table
/// version, and then notifies subscribers with ONE structured
/// TableChangeEvent per committed FlowMod — in version order, on the
/// caller's thread, only for FlowMods that actually changed something
/// (a no-op delete/modify emits nothing). Events carry the exact rule
/// ids touched, so a revalidator can coalesce a burst of them into one
/// precise suspect pass: the sequence of events between two versions
/// fully explains every table difference between those versions, which
/// is what lets a cache queue them and drain the queue later, at its
/// next lookup, without ever serving a stale rule.
///
/// Threading contract: apply() and account() never run beside a reader
/// of the table — lookup(), first_match(), unwildcarded(), find(),
/// entries() or ExactMatchCache::lookup(). The readers and the writers
/// run on one thread, as under SimRuntime, where every context takes its
/// turn on the one thread (ThreadedRuntime scenarios install their rules
/// before the threads start). apply() inserts into and erases from the
/// entries, their compiled tests and their unwildcard sets, any of which
/// may reallocate, and no reader takes a lock, so a FlowMod applied on
/// another thread while a lookup runs is a data race. Only the
/// change-event queue is made to cross threads: a subscriber queues the
/// events under a mutex (classifier::MegaflowCache::on_table_change) for
/// the cache owner to drain at its next lookup. Readers may run beside
/// one another: the one write they make, the forwarding engine's
/// rule-counter adds, is a relaxed atomic.

namespace hw::flowtable {

struct FlowEntry {
  RuleId id = kRuleNone;
  openflow::Match match;
  std::uint16_t priority = 0;
  Cookie cookie = 0;
  openflow::ActionList actions;
  TimeNs install_time_ns = 0;
  /// Bumped to the table version whenever this rule's actions/cookie are
  /// rewritten (MODIFY, or ADD onto an identical match+priority). Cache
  /// tiers stamp the generation at insert time, so a mutated rule is
  /// detected in O(1) without invalidating unrelated cache lines.
  std::uint64_t generation = 0;
  // Counters updated by the forwarding engine for switched traffic.
  // Bypassed traffic is counted by the PMDs into the shared-stats region
  // and merged at stats-request time.
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

/// Result of applying one FlowMod; the detector uses the affected ports.
struct FlowModResult {
  std::uint32_t added = 0;
  std::uint32_t modified = 0;
  std::uint32_t removed = 0;
};

/// Structured description of one applied FlowMod, delivered to
/// subscribers the moment the table changes. It carries enough context
/// for a precise revalidator: the command, the (match, priority) the
/// FlowMod named, and the rule ids it touched — so caches can re-check
/// only the entries the change could affect instead of flushing
/// wholesale (the OVS revalidator model). Per command:
///  * kAdd — `added` holds the freshly minted rule id, or `modified`
///    holds the overwritten rule's id when the ADD landed on an
///    identical match+priority (actions/cookie rewrite, winners
///    unchanged). Only the `match` can steal keys from cached entries.
///  * kModify/kModifyStrict — `modified` lists every rewritten rule.
///    Winners are unchanged; caches that resolve rules live by id need
///    no work, generation-stamped tiers re-stamp the affected slots.
///  * kDelete/kDeleteStrict — `removed` lists every erased rule; a
///    cached entry can only change winner if its winner is in this set.
/// `version` is the table version AFTER the change; consecutive events
/// carry strictly increasing versions with no gaps.
struct TableChangeEvent {
  openflow::FlowModCommand command = openflow::FlowModCommand::kAdd;
  openflow::Match match;
  std::uint16_t priority = 0;
  std::uint64_t version = 0;  ///< table version after the change
  std::vector<RuleId> added;
  std::vector<RuleId> modified;
  std::vector<RuleId> removed;
};

class FlowTable {
 public:
  FlowTable() = default;

  /// Applies an OpenFlow FlowMod. ADD replaces an entry with identical
  /// match+priority (counters are preserved across the overwrite, per
  /// OpenFlow semantics); MODIFY/DELETE follow non-strict (containment)
  /// or strict (identity) semantics per the command.
  [[nodiscard]] Result<FlowModResult> apply(const openflow::FlowMod& mod,
                                            TimeNs now_ns = 0);

  /// Highest-priority entry matching the key; nullptr on miss. Ties are
  /// broken by lowest rule id (deterministic, mirrors OVS's "undefined but
  /// stable" behaviour). Hot path: no allocation.
  [[nodiscard]] FlowEntry* lookup(const pkt::FlowKey& key) noexcept {
    const std::size_t i = first_match(openflow::pack(key));
    return i < entries_.size() ? &entries_[i] : nullptr;
  }

  /// Index into entries() of the first (winning) entry whose match the
  /// packed key satisfies, or size() on miss. Scans one compiled test
  /// per rule (Match::compile), kept beside entries(): inserted and
  /// erased with its entry, never recompiled.
  [[nodiscard]] std::size_t first_match(
      const openflow::PackedKey& key) const noexcept {
    std::size_t i = 0;
    while (i < compiled_.size() && !compiled_[i].matches(key)) ++i;
    return i;
  }

  /// The unwildcard set of a lookup that examined the first `examined`
  /// rules of entries(): the unite of their matches, empty for none. An
  /// upcall examines every rule up to and including its winner, or all
  /// of them on a miss, in OVS's priority-order scan.
  [[nodiscard]] openflow::MaskSpec unwildcarded(
      std::size_t examined) const noexcept {
    return examined == 0 ? openflow::MaskSpec{} : unwildcard_[examined - 1];
  }

  /// Adds `packets`/`bytes` to the rule's counters with plain adds (the
  /// bypass manager folding a torn-down link's counters back).
  void account(RuleId id, std::uint64_t packets, std::uint64_t bytes) noexcept;

  /// All live entries, priority-descending. Invalidated by apply().
  [[nodiscard]] const std::vector<FlowEntry>& entries() const noexcept {
    return entries_;
  }

  /// O(1) id → entry resolution via a side index maintained by apply().
  /// This is on the hot path: every EMC/megaflow hit resolves its cached
  /// rule id through here. It never allocates.
  [[nodiscard]] FlowEntry* find(RuleId id) noexcept {
    const std::size_t i = positions_.find(id);
    return i < entries_.size() ? &entries_[i] : nullptr;
  }
  [[nodiscard]] const FlowEntry* find(RuleId id) const noexcept {
    const std::size_t i = positions_.find(id);
    return i < entries_.size() ? &entries_[i] : nullptr;
  }

  /// Monotonic version, bumped on every table change; cache tiers use it
  /// to detect changes they have not yet revalidated against.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Registers a callback fired after every FlowMod that changed the
  /// table (add/modify/delete), with a structured change event. The
  /// per-engine classifiers feed these events to their revalidators.
  /// Returns a token for unsubscribe(); subscribers must unsubscribe
  /// before the table is destroyed.
  std::uint64_t subscribe(std::function<void(const TableChangeEvent&)> listener);
  void unsubscribe(std::uint64_t token) noexcept;

 private:
  /// Rule id → position in entries_: open addressing with linear
  /// probing, at most half full. Its storage survives commits, so once
  /// it has held as many rules as the table ever holds, no update
  /// allocates.
  class PositionIndex {
   public:
    static constexpr std::size_t kAbsent = ~std::size_t{0};
    [[nodiscard]] std::size_t find(RuleId id) const noexcept {
      if (slots_.empty()) return kAbsent;
      for (std::size_t s = home(id);; s = (s + 1) & (slots_.size() - 1)) {
        if (slots_[s].id == id) return slots_[s].pos;
        if (slots_[s].id == kRuleNone) return kAbsent;
      }
    }
    /// Sets `id`'s position, adding the id if absent.
    void assign(RuleId id, std::size_t pos);
    /// Drops `id` (backward-shift deletion: no tombstones).
    void erase(RuleId id) noexcept;

   private:
    struct Slot {
      RuleId id = kRuleNone;
      std::uint32_t pos = 0;
    };
    [[nodiscard]] std::size_t home(RuleId id) const noexcept {
      return (id * 0x9e3779b1u) & (slots_.size() - 1);
    }
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  /// Bumps the version, stamps generations of added/modified rules and
  /// notifies every subscriber. The id index, compiled tests and
  /// unwildcard sets are already current: apply() updates them in place.
  void commit(TableChangeEvent& event);
  /// Re-files entries_[from..] after they shifted: their ids' positions
  /// and their unwildcard sets. Entries before `from` are untouched.
  void reindex(std::size_t from);

  struct Listener {
    std::uint64_t token = 0;
    std::function<void(const TableChangeEvent&)> fn;
  };

  RuleId next_id_ = 1;
  std::uint64_t version_ = 1;
  std::uint64_t next_listener_token_ = 1;
  // Sorted by (priority desc, id asc); linear lookup like OVS's slow path.
  std::vector<FlowEntry> entries_;
  // id → index into entries_, updated in place by apply().
  PositionIndex positions_;
  // compiled_[i] is entries_[i].match compiled; inserted and erased in
  // step with entries_.
  std::vector<openflow::CompiledMatch> compiled_;
  // unwildcard_[i] is the unite of entries_[0..i].match.
  std::vector<openflow::MaskSpec> unwildcard_;
  std::vector<Listener> listeners_;
};

/// Direct-mapped exact-match cache in front of the classifier — the
/// analogue of the OVS-DPDK EMC. One entry per hash bucket; collisions
/// overwrite (cheap, good enough for steady flows). Entries are stamped
/// with the rule's generation: a deleted or mutated rule is rejected in
/// O(1) at lookup, and FlowMod churn is handled by precise revalidation
/// (repair or evict exactly the slots the change could affect) instead of
/// invalidating the whole tier.
class ExactMatchCache {
 public:
  explicit ExactMatchCache(std::size_t buckets = 4096)
      : buckets_(next_power_of_two(buckets)),
        slots_(buckets_),
        candidate_bits_((buckets_ + 63) / 64) {}

  /// Returns the live entry for a cached flow, or nullptr on miss. A hit
  /// requires the cached rule to still exist at the cached generation;
  /// otherwise the slot is dropped and the lookup falls through.
  [[nodiscard]] FlowEntry* lookup(const pkt::FlowKey& key, std::uint32_t hash,
                                  FlowTable& table) noexcept {
    // EMC slots belong to the cache owner's context only: revalidation
    // runs via the megaflow drain hooks inside the owner's own lookups,
    // never from the control side. A clear() from the FlowTable listener
    // fails five DpClassifierTest cases (megaflow_test) and
    // RevalidationWorkTest.PinnedChurnBurstsDrainTheSameWork.
    Slot& slot = slots_[hash & (buckets_ - 1)];
    if (slot.rule != kRuleNone && slot.hash == hash && slot.key == key) {
      FlowEntry* entry = table.find(slot.rule);
      if (entry != nullptr && entry->generation == slot.generation) {
        ++hits_;
        return entry;
      }
      // Rule deleted or mutated since the stamp: never serve it.
      slot.rule = kRuleNone;
      ++stale_rejects_;
    }
    ++misses_;
    return nullptr;
  }

  void insert(const pkt::FlowKey& key, std::uint32_t hash, RuleId rule,
              std::uint64_t generation) {
    const std::size_t i = hash & (buckets_ - 1);
    Slot& slot = slots_[i];
    // A new key in the slot files it anew in every revalidation index.
    if (!indexes_.empty()) {
      indexes_.relink(static_cast<std::uint32_t>(i), openflow::pack(key));
    }
    slot.key = key;
    slot.hash = hash;
    slot.rule = rule;
    slot.generation = generation;
  }

  struct RevalidateCounts {
    std::uint32_t scanned = 0;   ///< occupied slots examined by the pass
    std::uint32_t index_probes = 0;  ///< revalidation-index buckets looked up
    std::uint32_t repaired = 0;  ///< re-pointed at the table's new winner
    std::uint32_t evicted = 0;   ///< no rule matches the slot's key anymore
  };

  /// Precise, coalesced revalidation for a whole drained event batch:
  /// ONE pass over the suspect slots. A slot is suspect iff some event's
  /// match covers its exact key (for MODIFY/DELETE the FlowMod match
  /// contains every affected rule's match, so it also covers every key
  /// those rules matched); each suspect is re-resolved once against the
  /// updated table and repaired (new winner / fresh generation) or
  /// evicted. Slots no change can affect are untouched, so a FlowMod no
  /// longer costs the whole exact-match tier and a burst of N FlowMods
  /// costs one pass instead of N. Each event's match is compiled once
  /// per drain, and the slots a test can pass are looked up in the
  /// revalidation index of its shape (openflow::ShapeIndexSet) rather
  /// than found by testing every slot. A drain that needs a shape with
  /// no index tests every occupied slot, and indexes the shape after.
  /// `scanned` counts slots examined (what the per-entry cost is charged
  /// on); repaired/evicted count re-resolutions.
  RevalidateCounts revalidate_batch(std::span<const TableChangeEvent> events,
                                    FlowTable& table);

  /// Drops every slot (overflow fallback of the revalidator queue).
  void clear() noexcept;

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// Hits rejected because the cached rule was gone or re-generationed.
  [[nodiscard]] std::uint64_t stale_rejects() const noexcept {
    return stale_rejects_;
  }

 private:
  struct Slot {
    pkt::FlowKey key;
    std::uint32_t hash = 0;
    RuleId rule = kRuleNone;
    std::uint64_t generation = 0;
  };
  std::size_t buckets_;
  std::vector<Slot> slots_;
  /// Revalidation indexes over slots_, keyed by slot position. Only
  /// insert changes a slot's key, so only insert (and clear) re-file.
  openflow::ShapeIndexSet indexes_;
  std::uint64_t drains_ = 0;  ///< revalidate_batch calls, the indexes' clock
  /// The drained events' matches, compiled (revalidate_batch scratch).
  std::vector<openflow::CompiledMatch> event_tests_;
  /// The slots the index returned for them (revalidate_batch scratch).
  std::vector<std::uint32_t> candidates_;
  /// Those slots as one bit per slot position, so a walk in ascending
  /// order visits each once (revalidate_batch scratch; all zero between
  /// calls).
  std::vector<std::uint64_t> candidate_bits_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stale_rejects_ = 0;
};

}  // namespace hw::flowtable
