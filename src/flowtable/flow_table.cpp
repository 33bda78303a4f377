#include "flowtable/flow_table.h"

#include <algorithm>

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
      entries_.push_back(std::move(entry));
      std::sort(entries_.begin(), entries_.end(), entry_order);
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
      const auto before = entries_.size();
      std::erase_if(entries_, [&](const FlowEntry& entry) {
        const bool hit = strict ? (entry.priority == mod.priority &&
                                   entry.match == mod.match)
                                : mod.match.contains(entry.match);
        if (hit) event.removed.push_back(entry.id);
        return hit;
      });
      result.removed = static_cast<std::uint32_t>(before - entries_.size());
      if (result.removed > 0) commit(event);
      return result;
    }
  }
  return Status::invalid_argument("unknown flowmod command");
}

FlowEntry* FlowTable::lookup(const pkt::FlowKey& key) noexcept {
  // entries_ is kept sorted by priority desc, id asc: first hit wins.
  for (FlowEntry& entry : entries_) {
    if (entry.match.matches(key)) return &entry;
  }
  return nullptr;
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
  rebuild_index();
  // Generation stamps carry the version of the change that last rewrote
  // the rule, so caches can detect mutation per rule instead of per table.
  for (const RuleId id : event.added) find(id)->generation = version_;
  for (const RuleId id : event.modified) find(id)->generation = version_;
  for (const Listener& listener : listeners_) listener.fn(event);
}

void FlowTable::rebuild_index() {
  index_.clear();
  index_.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_.emplace(entries_[i].id, i);
  }
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
  HW_SHARED_WRITE(&slots_);
  for (Slot& slot : slots_) {
    if (slot.rule == kRuleNone) continue;
    ++counts.scanned;
    // Suspect iff ANY drained event's match covers the cached key; one
    // re-resolution against the (already fully updated) table then lands
    // on the winner the last event left behind.
    bool suspect = false;
    for (const TableChangeEvent& event : events) {
      if (event.match.matches(slot.key)) {
        suspect = true;
        break;
      }
    }
    if (!suspect) continue;
    FlowEntry* winner = table.lookup(slot.key);
    if (winner == nullptr) {
      slot.rule = kRuleNone;
      ++counts.evicted;
    } else {
      slot.rule = winner->id;
      slot.generation = winner->generation;
      ++counts.repaired;
    }
  }
  return counts;
}

void ExactMatchCache::clear() noexcept {
  HW_SHARED_WRITE(&slots_);
  for (Slot& slot : slots_) slot.rule = kRuleNone;
}

}  // namespace hw::flowtable
