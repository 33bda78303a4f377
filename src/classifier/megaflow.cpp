#include "classifier/megaflow.h"

#include <algorithm>
#include <bit>

#include "analysis/annotate.h"

namespace hw::classifier {

using flowtable::TableChangeEvent;
using openflow::FlowModCommand;

namespace {

[[nodiscard]] bool is_removal(FlowModCommand command) noexcept {
  return command == FlowModCommand::kDelete ||
         command == FlowModCommand::kDeleteStrict;
}

[[nodiscard]] bool is_modify(FlowModCommand command) noexcept {
  return command == FlowModCommand::kModify ||
         command == FlowModCommand::kModifyStrict;
}

[[nodiscard]] std::size_t pow2_ceil(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

[[nodiscard]] constexpr std::size_t block_ceil(std::size_t n) noexcept {
  return (n + simd::kLanesU16 - 1) & ~(simd::kLanesU16 - 1);
}

/// Invokes `fn(field_bit, value)` for every *exact-valued* field the mask
/// constrains (IPv4 prefixes are excluded: their per-entry values are not
/// set-membership-testable under differing prefix lengths). These are the
/// value fingerprints the subtable Bloom carries for the revalidator's
/// subtable-level may-intersect test.
template <typename F>
void for_each_exact_field(const MaskSpec& mask, const pkt::FlowKey& masked,
                          F&& fn) {
  if (mask.fields & openflow::kMatchInPort) {
    fn(openflow::kMatchInPort, static_cast<std::uint32_t>(masked.in_port));
  }
  if (mask.fields & openflow::kMatchEthType) {
    fn(openflow::kMatchEthType, static_cast<std::uint32_t>(masked.ether_type));
  }
  if (mask.fields & openflow::kMatchIpProto) {
    fn(openflow::kMatchIpProto, static_cast<std::uint32_t>(masked.ip_proto));
  }
  if (mask.fields & openflow::kMatchL4Src) {
    fn(openflow::kMatchL4Src, static_cast<std::uint32_t>(masked.src_port));
  }
  if (mask.fields & openflow::kMatchL4Dst) {
    fn(openflow::kMatchL4Dst, static_cast<std::uint32_t>(masked.dst_port));
  }
}

/// The exact-field value `match` pins for `field`, for the same
/// fingerprint space as for_each_exact_field.
[[nodiscard]] std::uint32_t match_field_value(const openflow::Match& match,
                                              std::uint32_t field) noexcept {
  switch (field) {
    case openflow::kMatchInPort:
      return match.in_port_value();
    case openflow::kMatchEthType:
      return match.eth_type_value();
    case openflow::kMatchIpProto:
      return match.ip_proto_value();
    case openflow::kMatchL4Src:
      return match.l4_src_value();
    default:
      return match.l4_dst_value();
  }
}

constexpr std::uint32_t kExactFields =
    openflow::kMatchInPort | openflow::kMatchEthType |
    openflow::kMatchIpProto | openflow::kMatchL4Src | openflow::kMatchL4Dst;

}  // namespace

std::size_t MegaflowCache::Subtable::find(const pkt::FlowKey& masked,
                                          std::uint16_t sig, bool simd,
                                          ProbeTally& tally) const {
  const std::size_t n = slots.size();
  if (!simd) {
    // Portable signature scan: one scalar compare per signature; full
    // compares fire only on fingerprint matches. Compares are charged up
    // to the match.
    const std::uint16_t* s = sigs.data();
    std::size_t found = kNpos;
    for (std::size_t i = 0; i < n; ++i) {
      if (s[i] != sig) continue;
      ++tally.full_compares;
      if (slots[i].key == masked) {
        found = i;
        break;
      }
    }
    tally.sig_scalar +=
        static_cast<std::uint32_t>(found == kNpos ? n : found + 1);
    return found;
  }
  // SIMD signature scan: one 16-lane vector compare per block (the array
  // is padded to a block multiple; tail lanes are masked off inside
  // match_mask_u16), then one full compare per surviving lane. Blocks
  // are charged up to the match. Lanes rarely match, so the full
  // compares stay off the block loop's straight-line path: the loop
  // stays compact, and its host speed no longer depends on where the
  // linker places it.
  std::size_t base = 0;
  for (; base < n; base += simd::kLanesU16) {
    std::uint32_t lanes = simd::match_mask_u16(
        sigs.data() + base, std::min(simd::kLanesU16, n - base), sig);
    if (lanes == 0) [[likely]] continue;
    do {
      const std::size_t index = base + std::countr_zero(lanes);
      lanes &= lanes - 1;
      ++tally.full_compares;
      if (slots[index].key == masked) {
        tally.sig_blocks +=
            static_cast<std::uint32_t>(base / simd::kLanesU16 + 1);
        return index;
      }
    } while (lanes != 0);
  }
  tally.sig_blocks += static_cast<std::uint32_t>(base / simd::kLanesU16);
  return kNpos;
}

void MegaflowCache::Subtable::sig_push(std::uint16_t sig) {
  if (slots.size() > sigs.size()) {
    sigs.resize(sigs.size() + simd::kLanesU16, 0);
  }
  sigs[slots.size() - 1] = sig;
}

void MegaflowCache::Subtable::erase_at(std::size_t index) {
  bloom_remove_slot(slots[index]);
  const std::size_t last = slots.size() - 1;
  sigs[index] = sigs[last];
  sigs[last] = 0;  // padding lanes stay zero (masked off anyway)
  slots[index] = std::move(slots.back());
  slots.pop_back();
  if (block_ceil(slots.size()) < sigs.size()) {
    sigs.resize(block_ceil(slots.size()));
  }
}

void MegaflowCache::Subtable::bloom_add_slot(const Slot& slot) {
  key_bloom.add(fp_signature(flow_signature(slot.key)));
  plan_bloom.add(fp_rule(slot.rule));
  for_each_exact_field(mask, slot.key,
                       [this](std::uint32_t field, std::uint32_t value) {
                         plan_bloom.add(fp_field(field, value));
                       });
}

void MegaflowCache::Subtable::bloom_remove_slot(const Slot& slot) {
  key_bloom.remove(fp_signature(flow_signature(slot.key)));
  plan_bloom.remove(fp_rule(slot.rule));
  for_each_exact_field(mask, slot.key,
                       [this](std::uint32_t field, std::uint32_t value) {
                         plan_bloom.remove(fp_field(field, value));
                       });
}

void MegaflowCache::Subtable::bloom_update_rule(RuleId old_rule,
                                                RuleId new_rule) {
  if (old_rule == new_rule) return;
  plan_bloom.remove(fp_rule(old_rule));
  plan_bloom.add(fp_rule(new_rule));
}

void MegaflowCache::Subtable::maybe_grow_blooms() {
  if (slots.size() * 16 <= key_bloom.buckets()) return;
  // Rebuild at 32 buckets per slot: the next doubling is a population
  // doubling away, and sig-absent probes keep a ~1-2% pass rate instead
  // of saturating. Shrink is never needed — emptied subtables are
  // pruned, and a trimmed population only makes the filter sparser.
  const std::size_t target = pow2_ceil(slots.size() * 32);
  key_bloom.reset(target);
  plan_bloom.reset(target);
  for (const Slot& slot : slots) bloom_add_slot(slot);
}

bool MegaflowCache::subtable_may_intersect(const Subtable& subtable,
                                           const openflow::Match& match,
                                           std::uint64_t& checks) {
  // A per-entry may_intersect requires equality on every exact field both
  // sides constrain. If ANY common exact field's match value is provably
  // absent from the subtable (no entry carries it), no entry can
  // intersect — the whole subtable is clean for this term. IPv4 prefixes
  // and terms sharing no exact field stay conservative (scan).
  const std::uint32_t common = subtable.mask.fields & match.fields();
  for (std::uint32_t field = 1; field != 0 && field <= common; field <<= 1) {
    if ((common & field & kExactFields) == 0) continue;
    ++checks;
    if (!subtable.plan_bloom.may_contain(
            fp_field(field, match_field_value(match, field)))) {
      return false;
    }
  }
  return true;
}

std::size_t MegaflowCache::probe_subtable(const Subtable& subtable,
                                          const pkt::FlowKey& masked,
                                          ProbeTally& tally) {
  ++tally.probes;
  const std::uint16_t sig = flow_signature(masked);
  if (config_.subtable_prefilter) {
    // Whole-subtable skip: a masked key whose signature the counting
    // Bloom provably lacks cannot be stored here — don't touch the
    // arrays at all.
    ++tally.prefilter_checks;
    if (!subtable.key_bloom.may_contain(fp_signature(sig))) {
      ++stats_.subtables_skipped;
      return kNpos;
    }
  }
  const std::uint32_t blocks_before = tally.sig_blocks;
  const std::uint32_t compares_before = tally.full_compares;
  const std::size_t index =
      subtable.find(masked, sig, use_simd_scan(), tally);
  stats_.simd_blocks += tally.sig_blocks - blocks_before;
  // Every fingerprint match that failed its full compare is a false
  // positive; a confirmed match is a signature hit.
  const std::uint32_t compares = tally.full_compares - compares_before;
  if (index != kNpos) {
    ++stats_.sig_hits;
    stats_.sig_false_positives += compares - 1;
  } else {
    stats_.sig_false_positives += compares;
  }
  if (config_.subtable_prefilter && index == kNpos) {
    // The Bloom let the scan through but nothing matched — the skip
    // opportunity a collision (or a same-signature key) wasted.
    ++stats_.prefilter_false_positives;
  }
  return index;
}

void MegaflowCache::lookup_batch(std::span<const pkt::FlowKey> keys,
                                 std::uint64_t table_version,
                                 std::span<RuleId> out, ProbeTally& tally) {
  // Drain everything first so the whole batch sees one synchronized
  // cache.
  (void)revalidate();
  const std::uint32_t probes_before = tally.probes;
  batch_pending_.clear();
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    out[i] = kRuleNone;
    batch_pending_.push_back(i);
  }
  bool evicted = false;
  // One pass per subtable over every still-unresolved key: the whole
  // batch shares this subtable's rank dispatch and mask context before
  // the next subtable is touched.
  for (auto& subtable : subtables_) {
    if (batch_pending_.empty()) break;
    for (std::size_t p = 0; p < batch_pending_.size();) {
      const std::uint32_t i = batch_pending_[p];
      const pkt::FlowKey masked = apply(subtable->mask, keys[i]);
      const std::size_t index = probe_subtable(*subtable, masked, tally);
      if (index == kNpos) {
        ++p;
        continue;
      }
      if (synced_version_ != table_version &&
          subtable->slots[index].version != table_version) {
        subtable->erase_at(index);
        --entries_;
        ++stats_.stale_evictions;
        evicted = true;
        ++p;  // still unresolved; later subtables may cover it
        continue;
      }
      out[i] = subtable->slots[index].rule;
      touch(subtable->slots[index]);
      ++subtable->window_hits;
      batch_pending_[p] = batch_pending_.back();
      batch_pending_.pop_back();
    }
  }
  stats_.subtables_probed += tally.probes - probes_before;
  stats_.hits += keys.size() - batch_pending_.size();
  stats_.misses += batch_pending_.size();
  if (evicted) prune_empty_subtables();
  maybe_rerank(static_cast<std::uint32_t>(keys.size()));
  maybe_resize(static_cast<std::uint32_t>(keys.size()));
}

void MegaflowCache::insert(const pkt::FlowKey& key, const MaskSpec& mask,
                           RuleId rule, std::uint64_t table_version) {
  if (config_.max_entries == 0) return;
  (void)revalidate();
  Subtable& subtable = subtable_for(mask);
  const pkt::FlowKey masked = apply(mask, key);
  const std::uint16_t sig = flow_signature(masked);
  ProbeTally scratch;  // dup-scan work is covered by the caller's insert charge
  const std::size_t existing =
      subtable.find(masked, sig, use_simd_scan(), scratch);
  if (existing != kNpos) {
    subtable.bloom_update_rule(subtable.slots[existing].rule, rule);
    subtable.slots[existing].rule = rule;
    subtable.slots[existing].version = table_version;
    ++stats_.overwrites;
    return;
  }
  Slot slot{masked, rule, table_version, size_epoch_};
  subtable.slots.push_back(slot);
  subtable.sig_push(sig);
  subtable.bloom_add_slot(subtable.slots.back());
  subtable.maybe_grow_blooms();
  ++stats_.inserts;
  ++entries_;
  ++window_distinct_;  // a fresh entry is part of the working set
  if (entries_ > effective_capacity_) evict_one(&subtable);
}

void MegaflowCache::on_table_change(const TableChangeEvent& event) {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    HW_SYNC_SCOPE(&queue_mutex_);
    HW_SHARED_WRITE(&queue_);
    if (queue_.size() >= config_.revalidator_queue_limit) {
      // Too much churn to track precisely: drop the backlog and fall
      // back to one full flush covering everything up to this version.
      queue_.clear();
      queue_overflowed_ = true;
      overflow_version_ = std::max(overflow_version_, event.version);
    } else {
      queue_.push_back(event);
    }
  }
  HW_ATOMIC_WRITE(&events_pending_);
  events_pending_.store(true, std::memory_order_release);
}

void MegaflowCache::set_revalidation_hooks(
    Resolver resolver,
    std::function<void(std::span<const TableChangeEvent>)> events_sink,
    std::function<void()> flush_sink) {
  resolver_ = std::move(resolver);
  events_sink_ = std::move(events_sink);
  flush_sink_ = std::move(flush_sink);
}

MegaflowCache::RevalidateReport MegaflowCache::revalidate() {
  RevalidateReport report;
  HW_ATOMIC_READ(&events_pending_);
  if (!events_pending_.load(std::memory_order_acquire)) return report;

  std::vector<TableChangeEvent> events;
  bool overflowed = false;
  std::uint64_t overflow_version = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    HW_SYNC_SCOPE(&queue_mutex_);
    HW_SHARED_WRITE(&queue_);
    events.swap(queue_);
    overflowed = queue_overflowed_;
    overflow_version = overflow_version_;
    queue_overflowed_ = false;
    overflow_version_ = 0;
    HW_ATOMIC_WRITE(&events_pending_);
    events_pending_.store(false, std::memory_order_relaxed);
  }

  if (overflowed) {
    ++stats_.queue_overflows;
    flush_all();
    report.flushed = true;
    synced_version_ = std::max(synced_version_, overflow_version);
    if (flush_sink_) flush_sink_();
  }
  revalidate_coalesced(events, resolver_ ? &resolver_ : nullptr, report);
  report.events = events.size();
  if (events_sink_ && !events.empty()) events_sink_(events);
  if (report.evicted > 0) prune_empty_subtables();
  return report;
}

void MegaflowCache::revalidate_coalesced(
    std::span<const TableChangeEvent> events, const Resolver* resolver,
    RevalidateReport& report) {
  // Fold the whole burst into one plan: DELETE rule-id sets are unioned
  // into one sorted membership set, ADD matches are merged by containment
  // (a match whose cover set lies inside an already-kept match cannot
  // mark any extra entry suspect), MODIFYs need no megaflow work at all
  // (winners are unchanged and rules resolve live by id).
  plan_removed_.clear();
  plan_adds_.clear();
  std::size_t scan_events = 0;
  std::uint64_t max_version = synced_version_;
  for (const TableChangeEvent& event : events) {
    max_version = std::max(max_version, event.version);
    if (is_modify(event.command)) continue;
    if (is_removal(event.command)) {
      if (event.removed.empty()) continue;
      ++scan_events;
      plan_removed_.insert(plan_removed_.end(), event.removed.begin(),
                           event.removed.end());
      continue;
    }
    ++scan_events;
    bool absorbed = false;
    std::erase_if(plan_adds_, [&](const openflow::Match* kept) {
      if (absorbed) return false;
      if (kept->contains(event.match)) {
        absorbed = true;  // an earlier, broader match already covers it
        return false;
      }
      return event.match.contains(*kept);  // the new match supersedes it
    });
    if (!absorbed) plan_adds_.push_back(&event.match);
  }
  synced_version_ = max_version;
  if (scan_events == 0) {
    plan_adds_.clear();  // never leave pointers into `events` behind
    return;
  }
  stats_.reval_coalesced_events += scan_events - 1;
  std::sort(plan_removed_.begin(), plan_removed_.end());

  // ONE suspect scan over the cache, whatever the burst size was. The
  // per-entry suspect test is a sorted-set membership probe (charged as
  // revalidate_per_entry) plus one intersect test per merged ADD mask
  // actually examined (each charged as revalidate_per_term). With the
  // subtable prefilter, whole subtables whose Bloom summary provably
  // contains no removed rule id and no entry an ADD term could intersect
  // are skipped without touching their entries — the scan is O(entries
  // in intersecting subtables), not O(entries).
  ++stats_.reval_batches;
  ++report.batches;
  for (auto& subtable : subtables_) {
    if (config_.subtable_prefilter) {
      bool relevant = false;
      for (const RuleId removed : plan_removed_) {
        ++stats_.reval_prefilter_checks;
        if (subtable->plan_bloom.may_contain(fp_rule(removed))) {
          relevant = true;
          break;
        }
      }
      if (!relevant) {
        for (const openflow::Match* match : plan_adds_) {
          if (subtable_may_intersect(*subtable, *match,
                                     stats_.reval_prefilter_checks)) {
            relevant = true;
            break;
          }
        }
      }
      if (!relevant) {
        ++stats_.subtables_skipped;
        ++report.subtables_skipped;
        continue;
      }
    }
    std::size_t suspects_here = 0;
    for (std::size_t i = 0; i < subtable->slots.size();) {
      Slot& slot = subtable->slots[i];
      ++stats_.reval_entries_scanned;
      ++report.entries_scanned;
      bool suspect = std::binary_search(plan_removed_.begin(),
                                        plan_removed_.end(), slot.rule);
      if (!suspect) {
        for (const openflow::Match* match : plan_adds_) {
          ++stats_.reval_term_tests;
          ++report.term_tests;
          if (may_intersect(subtable->mask, slot.key, *match)) {
            suspect = true;
            break;
          }
        }
      }
      if (!suspect) {
        ++i;
        continue;
      }
      ++suspects_here;
      ++report.revalidated;
      ++stats_.revalidations;
      bool keep = false;
      if (resolver != nullptr) {
        const Resolution res = (*resolver)(slot.key);
        // Repair is sound only when the fresh unwildcard set still fits
        // this subtable's mask: then every key in the cover set provably
        // resolves to the same new winner. A wider set means the cover
        // set is no longer uniform — evict and let the slow path carve
        // finer megaflows. The repair rewrites rule/version only; the
        // masked key — and therefore its signature — is untouched.
        if (res.found && subsumes(subtable->mask, res.unwildcarded)) {
          subtable->bloom_update_rule(slot.rule, res.rule);
          slot.rule = res.rule;
          slot.version = max_version;
          keep = true;
        }
      }
      if (keep) {
        ++stats_.revalidated_kept;
        ++report.repaired;
        ++i;
      } else {
        ++stats_.revalidated_evicted;
        ++report.evicted;
        subtable->erase_at(i);
        --entries_;
      }
    }
    if (config_.subtable_prefilter && suspects_here == 0) {
      // The Bloom let this subtable's scan through but no entry turned
      // out suspect — the skip a collision wasted.
      ++stats_.prefilter_false_positives;
    }
  }
  plan_adds_.clear();  // pointers into `events` must not outlive this drain
}

void MegaflowCache::flush_all() {
  ++stats_.flushes;
  stats_.stale_evictions += entries_;
  entries_ = 0;
  subtables_.clear();
  lookups_since_rerank_ = 0;
}

void MegaflowCache::prune_empty_subtables() {
  const std::size_t before = subtables_.size();
  std::erase_if(subtables_, [](const std::unique_ptr<Subtable>& subtable) {
    return subtable->slots.empty();
  });
  stats_.subtables_pruned += before - subtables_.size();
}

void MegaflowCache::maybe_rerank(std::uint32_t lookups) {
  lookups_since_rerank_ += lookups;
  if (lookups_since_rerank_ < config_.rank_interval) return;
  lookups_since_rerank_ = 0;
  ++stats_.reranks;
  const double alpha = config_.rank_ewma_alpha;
  for (auto& subtable : subtables_) {
    subtable->rank = (1.0 - alpha) * subtable->rank +
                     alpha * static_cast<double>(subtable->window_hits);
    subtable->window_hits = 0;
  }
  std::stable_sort(subtables_.begin(), subtables_.end(),
                   [](const auto& a, const auto& b) {
                     return a->rank > b->rank;
                   });
}

void MegaflowCache::maybe_resize(std::uint32_t lookups) {
  if (!config_.auto_size) return;
  lookups_since_resize_ += lookups;
  if (lookups_since_resize_ < config_.size_interval) return;
  lookups_since_resize_ = 0;

  // Working set this window: distinct entries hit plus fresh installs
  // (each a new member of the set). The distinct-hit estimate cannot see
  // past the window length, so a near-saturated window means "at least
  // this much" — never shrink below the current population on it.
  const std::size_t ws = window_distinct_;
  const double alpha = config_.size_ewma_alpha;
  working_set_ewma_ = working_set_ewma_ == 0.0
                          ? static_cast<double>(ws)
                          : (1.0 - alpha) * working_set_ewma_ +
                                alpha * static_cast<double>(ws);
  const double demand =
      std::max(static_cast<double>(ws), working_set_ewma_) *
      config_.size_headroom;
  const std::size_t floor_entries =
      std::min(config_.min_entries, config_.max_entries);
  std::size_t target = pow2_ceil(static_cast<std::size_t>(demand));
  target = std::clamp(target, floor_entries, config_.max_entries);
  const bool saturated =
      static_cast<double>(ws) * config_.size_headroom >=
      static_cast<double>(config_.size_interval);
  if (saturated) {
    target = std::clamp(pow2_ceil(std::max(target, entries_)), floor_entries,
                        config_.max_entries);
  }
  if (target != effective_capacity_) {
    effective_capacity_ = target;
    ++stats_.cache_resizes;
  }
  // Shed down to the new cap from the coldest subtables; the shrink is
  // what keeps suspect scans proportional to the live working set.
  while (entries_ > effective_capacity_) evict_one(nullptr);

  ++size_epoch_;
  if (size_epoch_ == 0) size_epoch_ = 1;  // 0 marks "never touched"
  window_distinct_ = 0;
}

MegaflowCache::Subtable& MegaflowCache::subtable_for(const MaskSpec& mask) {
  for (auto& subtable : subtables_) {
    if (subtable->mask == mask) return *subtable;
  }
  subtables_.push_back(std::make_unique<Subtable>(mask));
  return *subtables_.back();
}

void MegaflowCache::evict_one(const Subtable* protect) {
  // Shed from the coldest subtable holding entries (probe order is rank
  // order, so walk from the back) — but never the freshly appended entry
  // at the back of the caller's subtable.
  for (auto it = subtables_.rbegin(); it != subtables_.rend(); ++it) {
    Subtable& subtable = **it;
    if (subtable.slots.empty()) continue;
    if (&subtable == protect && subtable.slots.size() == 1) {
      continue;  // only the just-inserted entry lives here
    }
    // Victim choice is a second-chance clock hand over the slots,
    // preferring entries not touched in the current sizing window.
    // erase_at() swap-fills the hole from the back, so a fixed victim
    // index would consume the subtable's *tail* — the newest entries,
    // which under flow churn are exactly the live working set. A shrink
    // trim would then evict what the traffic is using, the re-upcalls
    // would re-inflate the working-set EWMA, and the auto-sizer would
    // oscillate instead of converging (the workload_cache_test
    // convergence oracle catches this).
    const std::size_t limit = &subtable == protect
                                  ? subtable.slots.size() - 1
                                  : subtable.slots.size();
    std::size_t victim = evict_cursor_ % limit;
    constexpr std::size_t kClockProbeMax = 8;
    for (std::size_t probe = 0; probe < kClockProbeMax && probe < limit;
         ++probe) {
      const std::size_t i = (victim + probe) % limit;
      if (subtable.slots[i].touch_epoch != size_epoch_) {
        victim = i;
        break;
      }
    }
    evict_cursor_ = victim + 1;
    subtable.erase_at(victim);
    --entries_;
    ++stats_.capacity_evictions;
    if (subtable.slots.empty()) {
      subtables_.erase(std::next(it).base());
      ++stats_.subtables_pruned;
    }
    return;
  }
}

std::vector<MaskSpec> MegaflowCache::subtable_masks() const {
  std::vector<MaskSpec> out;
  out.reserve(subtables_.size());
  for (const auto& subtable : subtables_) out.push_back(subtable->mask);
  return out;
}

}  // namespace hw::classifier
