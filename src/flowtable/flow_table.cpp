#include "flowtable/flow_table.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace hw::flowtable {

using openflow::FlowMod;
using openflow::FlowModCommand;

namespace {

/// Sort predicate: priority descending, then id ascending for stability.
bool entry_order(const FlowEntry& a, const FlowEntry& b) noexcept {
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.id < b.id;
}

TableChangeEvent event_for(const FlowMod& mod) {
  TableChangeEvent event;
  event.command = mod.command;
  event.match = mod.match;
  event.priority = mod.priority;
  return event;
}

}  // namespace

Result<FlowModResult> FlowTable::apply(const FlowMod& mod, TimeNs now_ns) {
  FlowModResult result;
  TableChangeEvent event = event_for(mod);
  switch (mod.command) {
    case FlowModCommand::kAdd: {
      if (mod.actions.empty()) {
        return Status::invalid_argument("ADD flowmod with no actions");
      }
      // OpenFlow ADD overwrites an entry with identical match + priority.
      // Counters survive the overwrite (no OFPFF_RESET_COUNTS here).
      for (FlowEntry& entry : entries_) {
        if (entry.priority == mod.priority && entry.match == mod.match) {
          entry.actions = mod.actions;
          entry.cookie = mod.cookie;
          entry.install_time_ns = now_ns;
          ++result.modified;
          event.modified.push_back(entry.id);
          commit(event);
          return result;
        }
      }
      FlowEntry entry;
      entry.id = next_id_++;
      entry.match = mod.match;
      entry.priority = mod.priority;
      entry.cookie = mod.cookie;
      entry.actions = mod.actions;
      entry.install_time_ns = now_ns;
      event.added.push_back(entry.id);
      // The fresh id is the largest, so it goes after every entry of its
      // priority or higher.
      const auto at = static_cast<std::size_t>(
          std::upper_bound(entries_.begin(), entries_.end(), entry,
                           entry_order) -
          entries_.begin());
      compiled_.insert(compiled_.begin() + static_cast<std::ptrdiff_t>(at),
                       mod.match.compile());
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(at),
                      std::move(entry));
      reindex(at);
      ++result.added;
      commit(event);
      return result;
    }

    case FlowModCommand::kModify:
    case FlowModCommand::kModifyStrict: {
      if (mod.actions.empty()) {
        return Status::invalid_argument("MODIFY flowmod with no actions");
      }
      const bool strict = mod.command == FlowModCommand::kModifyStrict;
      for (FlowEntry& entry : entries_) {
        const bool hit = strict ? (entry.priority == mod.priority &&
                                   entry.match == mod.match)
                                : mod.match.contains(entry.match);
        if (hit) {
          entry.actions = mod.actions;
          entry.cookie = mod.cookie;
          ++result.modified;
          event.modified.push_back(entry.id);
        }
      }
      if (result.modified > 0) commit(event);
      return result;
    }

    case FlowModCommand::kDelete:
    case FlowModCommand::kDeleteStrict: {
      const bool strict = mod.command == FlowModCommand::kDeleteStrict;
      // Compact entries_ and compiled_ in step, in place.
      std::size_t kept = 0;
      std::size_t first_moved = entries_.size();
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        const FlowEntry& entry = entries_[i];
        const bool hit = strict ? (entry.priority == mod.priority &&
                                   entry.match == mod.match)
                                : mod.match.contains(entry.match);
        if (hit) {
          event.removed.push_back(entry.id);
          positions_.erase(entry.id);
          first_moved = std::min(first_moved, i);
          continue;
        }
        if (kept != i) {
          entries_[kept] = std::move(entries_[i]);
          compiled_[kept] = compiled_[i];
        }
        ++kept;
      }
      result.removed = static_cast<std::uint32_t>(entries_.size() - kept);
      entries_.resize(kept);
      compiled_.resize(kept);
      if (result.removed > 0) {
        reindex(first_moved);
        commit(event);
      }
      return result;
    }
  }
  return Status::invalid_argument("unknown flowmod command");
}

void FlowTable::account(RuleId id, std::uint64_t packets,
                        std::uint64_t bytes) noexcept {
  if (FlowEntry* entry = find(id)) {
    entry->packet_count += packets;
    entry->byte_count += bytes;
  }
}

void FlowTable::commit(TableChangeEvent& event) {
  ++version_;
  event.version = version_;
  // Generation stamps carry the version of the change that last rewrote
  // the rule, so caches can detect mutation per rule instead of per table.
  for (const RuleId id : event.added) find(id)->generation = version_;
  for (const RuleId id : event.modified) find(id)->generation = version_;
  for (const Listener& listener : listeners_) listener.fn(event);
}

void FlowTable::reindex(std::size_t from) {
  // entries_ is kept sorted by priority desc, id asc, so the first
  // compiled test a key passes names the winner; only the entries at or
  // after a change moved.
  unwildcard_.resize(entries_.size());
  for (std::size_t i = from; i < entries_.size(); ++i) {
    positions_.assign(entries_[i].id, i);
    unwildcard_[i] = i == 0 ? openflow::MaskSpec{} : unwildcard_[i - 1];
    openflow::unite(unwildcard_[i], entries_[i].match);
  }
}

void FlowTable::PositionIndex::assign(RuleId id, std::size_t pos) {
  if (2 * (size_ + 1) > slots_.size()) {
    // Grow (and re-file) before the table would pass half full.
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.id != kRuleNone) assign(slot.id, slot.pos);
    }
  }
  std::size_t s = home(id);
  while (slots_[s].id != kRuleNone && slots_[s].id != id) {
    s = (s + 1) & (slots_.size() - 1);
  }
  if (slots_[s].id == kRuleNone) ++size_;
  slots_[s] = Slot{id, static_cast<std::uint32_t>(pos)};
}

void FlowTable::PositionIndex::erase(RuleId id) noexcept {
  if (slots_.empty()) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home(id);
  while (slots_[hole].id != id) {
    if (slots_[hole].id == kRuleNone) return;
    hole = (hole + 1) & mask;
  }
  // Shift back every later slot of the run whose home does not lie
  // after the hole, so no probe for it stops at the hole.
  for (std::size_t s = (hole + 1) & mask; slots_[s].id != kRuleNone;
       s = (s + 1) & mask) {
    const std::size_t dist_home = (s - home(slots_[s].id)) & mask;
    const std::size_t dist_hole = (s - hole) & mask;
    if (dist_home >= dist_hole) {
      slots_[hole] = slots_[s];
      hole = s;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

std::uint64_t FlowTable::subscribe(
    std::function<void(const TableChangeEvent&)> listener) {
  const std::uint64_t token = next_listener_token_++;
  listeners_.push_back(Listener{token, std::move(listener)});
  return token;
}

void FlowTable::unsubscribe(std::uint64_t token) noexcept {
  std::erase_if(listeners_,
                [token](const Listener& l) { return l.token == token; });
}

ExactMatchCache::RevalidateCounts ExactMatchCache::revalidate_batch(
    std::span<const TableChangeEvent> events, FlowTable& table) {
  RevalidateCounts counts;
  if (events.empty()) return counts;
  ++drains_;
  event_tests_.clear();
  for (const TableChangeEvent& event : events) {
    event_tests_.push_back(event.match.compile());
  }
  const auto revalidate_slot = [&](Slot& slot) {
    if (slot.rule == kRuleNone) return;
    ++counts.scanned;
    // Suspect iff ANY drained event's match covers the cached key; one
    // re-resolution against the (already fully updated) table then lands
    // on the winner the last event left behind.
    const openflow::PackedKey key = openflow::pack(slot.key);
    const bool suspect = std::any_of(
        event_tests_.begin(), event_tests_.end(),
        [&key](const openflow::CompiledMatch& test) {
          return test.matches(key);
        });
    if (!suspect) return;
    FlowEntry* winner = table.lookup(slot.key);
    if (winner == nullptr) {
      slot.rule = kRuleNone;
      ++counts.evicted;
    } else {
      slot.rule = winner->id;
      slot.generation = winner->generation;
      ++counts.repaired;
    }
  };
  if (indexes_.serves(event_tests_, drains_)) {
    // Slots never move, so the order is free; a slot in two buckets is
    // examined once. Marking the candidates in a bitmap and walking it
    // upward visits them in slot order, as sorting them would.
    candidates_.clear();
    counts.index_probes =
        static_cast<std::uint32_t>(indexes_.collect(event_tests_, candidates_));
    for (const std::uint32_t i : candidates_) {
      candidate_bits_[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    for (std::size_t w = 0; w < candidate_bits_.size(); ++w) {
      for (std::uint64_t bits = std::exchange(candidate_bits_[w], 0);
           bits != 0; bits &= bits - 1) {
        revalidate_slot(slots_[w * 64 + std::countr_zero(bits)]);
      }
    }
    return counts;
  }
  for (Slot& slot : slots_) revalidate_slot(slot);
  if (counts.scanned > 0) {
    indexes_.build(event_tests_, drains_,
                   static_cast<std::uint32_t>(slots_.size()),
                   [this](std::uint32_t i) -> std::optional<openflow::PackedKey> {
                     if (slots_[i].rule == kRuleNone) return std::nullopt;
                     return openflow::pack(slots_[i].key);
                   });
  }
  return counts;
}

void ExactMatchCache::clear() noexcept {
  for (Slot& slot : slots_) slot.rule = kRuleNone;
  indexes_.clear();  // no slot is occupied, so no slot is filed
}

}  // namespace hw::flowtable
