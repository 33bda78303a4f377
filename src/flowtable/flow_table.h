#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/annotate.h"
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
/// precise suspect scan: the sequence of events between two versions
/// fully explains every table difference between those versions, which
/// is what makes deferred (budgeted) draining sound.

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
  [[nodiscard]] FlowEntry* lookup(const pkt::FlowKey& key) noexcept;

  /// Adds `packets`/`bytes` to the rule's counters (forwarding engine).
  void account(RuleId id, std::uint64_t packets, std::uint64_t bytes) noexcept;

  /// All live entries, priority-descending. Invalidated by apply().
  [[nodiscard]] const std::vector<FlowEntry>& entries() const noexcept {
    return entries_;
  }

  /// O(1) id → entry resolution via a side index maintained by apply().
  /// This is on the hot path: every EMC/megaflow hit resolves its cached
  /// rule id through here.
  [[nodiscard]] FlowEntry* find(RuleId id) noexcept {
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : &entries_[it->second];
  }
  [[nodiscard]] const FlowEntry* find(RuleId id) const noexcept {
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : &entries_[it->second];
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
  /// Bumps the version, stamps generations of added/modified rules,
  /// rebuilds the id index and notifies every subscriber.
  void commit(TableChangeEvent& event);
  void rebuild_index();

  struct Listener {
    std::uint64_t token = 0;
    std::function<void(const TableChangeEvent&)> fn;
  };

  RuleId next_id_ = 1;
  std::uint64_t version_ = 1;
  std::uint64_t next_listener_token_ = 1;
  // Sorted by (priority desc, id asc); linear lookup like OVS's slow path.
  std::vector<FlowEntry> entries_;
  // id → index into entries_, rebuilt on every structural change.
  std::unordered_map<RuleId, std::size_t> index_;
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
      : buckets_(next_power_of_two(buckets)), slots_(buckets_) {}

  /// Returns the live entry for a cached flow, or nullptr on miss. A hit
  /// requires the cached rule to still exist at the cached generation;
  /// otherwise the slot is dropped and the lookup falls through.
  [[nodiscard]] FlowEntry* lookup(const pkt::FlowKey& key, std::uint32_t hash,
                                  FlowTable& table) noexcept {
    // EMC slots belong to the cache owner's context only — revalidation
    // runs via the megaflow drain hooks inside the owner's own lookups,
    // never directly from the control side. The annotations verify that
    // single-context discipline (a direct control-context mutation shows
    // up as a race under HW_ANALYSIS).
    HW_SHARED_READ(&slots_);
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
              std::uint64_t generation) noexcept {
    HW_SHARED_WRITE(&slots_);
    Slot& slot = slots_[hash & (buckets_ - 1)];
    slot.key = key;
    slot.hash = hash;
    slot.rule = rule;
    slot.generation = generation;
  }

  struct RevalidateCounts {
    std::uint32_t scanned = 0;   ///< occupied slots examined by the pass
    std::uint32_t repaired = 0;  ///< re-pointed at the table's new winner
    std::uint32_t evicted = 0;   ///< no rule matches the slot's key anymore
  };

  /// Precise, coalesced revalidation for a whole drained event batch:
  /// ONE pass over the occupied slots. A slot is suspect iff some event's
  /// match covers its exact key (for MODIFY/DELETE the FlowMod match
  /// contains every affected rule's match, so it also covers every key
  /// those rules matched); each suspect is re-resolved once against the
  /// updated table and repaired (new winner / fresh generation) or
  /// evicted. Slots no change can affect are untouched, so a FlowMod no
  /// longer costs the whole exact-match tier and a burst of N FlowMods
  /// costs one scan instead of N. `scanned` counts slots examined (what
  /// the per-entry cost is charged on); repaired/evicted count
  /// re-resolutions.
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
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stale_rejects_ = 0;
};

}  // namespace hw::flowtable
