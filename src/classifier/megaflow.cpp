#include "classifier/megaflow.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <optional>

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

/// EWMA weight of the newest window when re-ranking subtables.
constexpr double kRankEwmaAlpha = 0.25;

}  // namespace

bool MegaflowCache::Bucket::fill(std::uint32_t index,
                                 std::uint32_t hash) noexcept {
  if (used == 0xffffu) return false;
  const auto lane = static_cast<unsigned>(std::countr_one(used));
  sigs[lane] = flow_signature(hash);
  slot[lane] = index;
  used |= 1u << lane;
  return true;
}

unsigned MegaflowCache::Subtable::lane_in(std::size_t b,
                                          const pkt::FlowKey& masked,
                                          std::uint16_t sig,
                                          ProbeTally& tally) const {
  // One 16-lane signature compare, then one full compare per match.
  const Bucket& bucket = buckets[b];
  ++tally.sig_blocks;
  std::uint32_t lanes =
      simd::match_mask_u16_block(bucket.sigs.data(), sig) & bucket.used;
  for (; lanes != 0; lanes &= lanes - 1) {
    const auto lane = static_cast<unsigned>(std::countr_zero(lanes));
    ++tally.full_compares;
    if (slots[bucket.slot[lane]].key == masked) return lane;
  }
  return kNoLane;
}

std::pair<std::size_t, unsigned> MegaflowCache::Subtable::locate(
    const pkt::FlowKey& masked, std::uint32_t hash, ProbeTally& tally) const {
  // At most two bucket reads. A key that would sit in one bucket twice
  // (always, while the index has one bucket) costs one read.
  const std::uint16_t sig = flow_signature(hash);
  const std::size_t first = bucket1(hash);
  const std::size_t second = bucket2(hash);
  for (std::size_t b = first;; b = second) {
    const unsigned lane = lane_in(b, masked, sig, tally);
    if (lane != kNoLane) return {b, lane};
    if (b == second) break;
  }
  if (buckets[first].stashed) [[unlikely]] {
    for (std::size_t b = bucket_mask + 1; b < buckets.size(); ++b) {
      const unsigned lane = lane_in(b, masked, sig, tally);
      if (lane != kNoLane) return {b, lane};
    }
  }
  return {kNpos, 0};
}

void MegaflowCache::Subtable::place(std::uint32_t index) {
  // Cuckoo insert: a free lane in either bucket, else evict a resident
  // to ITS other bucket and carry on with it, up to the kick limit. The
  // victim lane comes from hash bits the bucket choice does not use and
  // rotates with the walk, so two full buckets cannot trade the same
  // pair of entries back and forth.
  std::uint32_t hash = slots[index].hash;
  std::size_t b = bucket1(hash);
  for (std::uint32_t kick = 0;; ++kick) {
    for (const std::size_t candidate : {b, b ^ bucket1(hash) ^ bucket2(hash)}) {
      if (buckets[candidate].fill(index, hash)) return;
    }
    if (kick == kCuckooKickLimit) break;
    Bucket& bucket = buckets[b];
    const unsigned lane = ((hash >> 28) + kick) % simd::kLanesU16;
    std::swap(bucket.slot[lane], index);
    bucket.sigs[lane] = flow_signature(hash);
    hash = slots[index].hash;
    b = b ^ bucket1(hash) ^ bucket2(hash);  // the evicted entry's other bucket
  }
  // The walk failed: both buckets of the carried entry are full. Growth
  // is left to the load bound, since keys sharing one full hash share
  // their buckets at every table size. Stash the entry instead and flag
  // its first bucket, so its probes scan the stash.
  buckets[bucket1(hash)].stashed = true;
  for (std::size_t s = bucket_mask + 1; s < buckets.size(); ++s) {
    if (buckets[s].fill(index, hash)) return;
  }
  buckets.emplace_back().fill(index, hash);
}

void MegaflowCache::Subtable::push(const Slot& slot) {
  slots.push_back(slot);
  if (!indexes.empty()) {
    indexes.link(static_cast<std::uint32_t>(slots.size() - 1),
                 openflow::pack(slot.key));
  }
  const std::size_t table = bucket_mask + 1;
  if (slots.size() <= table * kBucketFillBound) {
    place(static_cast<std::uint32_t>(slots.size() - 1));
    return;
  }
  // Load bound: double the table (dropping the stash) and re-place
  // every slot.
  buckets.assign(table * 2, Bucket{});
  bucket_mask = table * 2 - 1;
  for (std::uint32_t i = 0; i < slots.size(); ++i) place(i);
}

void MegaflowCache::Subtable::erase_at(std::size_t index) {
  ProbeTally unused;  // index upkeep, not a probe
  const auto [b, lane] = locate(slots[index].key, slots[index].hash, unused);
  assert(b != kNpos && "erased slot missing from the index");
  buckets[b].used &= ~(1u << lane);
  const std::size_t last = slots.size() - 1;
  if (!indexes.empty()) indexes.unlink(static_cast<std::uint32_t>(index));
  if (index != last) {
    // The last slot moves into the hole: re-point its lane and re-link
    // it in the revalidation indexes.
    const auto [moved_b, moved_lane] =
        locate(slots[last].key, slots[last].hash, unused);
    buckets[moved_b].slot[moved_lane] = static_cast<std::uint32_t>(index);
    if (!indexes.empty()) {
      indexes.move(static_cast<std::uint32_t>(last),
                   static_cast<std::uint32_t>(index));
    }
    slots[index] = std::move(slots.back());
  }
  slots.pop_back();
}

std::size_t MegaflowCache::probe_subtable(const Subtable& subtable,
                                          const pkt::FlowKey& masked,
                                          ProbeTally& tally) {
  ++tally.probes;
  const std::uint32_t blocks_before = tally.sig_blocks;
  const std::uint32_t compares_before = tally.full_compares;
  const std::size_t index =
      subtable.find(masked, pkt::flow_key_hash(masked), tally);
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
      subtable->slots[index].referenced = true;
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
}

void MegaflowCache::insert(const pkt::FlowKey& key, const MaskSpec& mask,
                           RuleId rule, std::uint64_t table_version) {
  if (config_.max_entries == 0) return;
  (void)revalidate();
  Subtable& subtable = subtable_for(mask);
  const pkt::FlowKey masked = apply(mask, key);
  const std::uint32_t hash = pkt::flow_key_hash(masked);
  ProbeTally scratch;  // dup-probe work is covered by the caller's insert charge
  const std::size_t existing = subtable.find(masked, hash, scratch);
  if (existing != kNpos) {
    subtable.slots[existing].rule = rule;
    subtable.slots[existing].version = table_version;
    ++stats_.overwrites;
    return;
  }
  subtable.push(Slot{masked, rule, table_version, hash});
  ++stats_.inserts;
  ++entries_;
  if (entries_ > config_.max_entries) evict_one(subtable);
}

void MegaflowCache::on_table_change(const TableChangeEvent& event) {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() >= kRevalidatorQueueLimit) {
      // Too much churn to track precisely: drop the backlog and fall
      // back to one full flush covering everything up to this version.
      queue_.clear();
      queue_overflowed_ = true;
      overflow_version_ = std::max(overflow_version_, event.version);
    } else {
      queue_.push_back(event);
    }
  }
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
  if (!events_pending_.load(std::memory_order_acquire)) return report;

  bool overflowed = false;
  std::uint64_t overflow_version = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    // The queue takes over the previous batch's emptied storage, so
    // neither vector regrows from zero after a drain.
    drained_.swap(queue_);
    overflowed = queue_overflowed_;
    overflow_version = overflow_version_;
    queue_overflowed_ = false;
    overflow_version_ = 0;
    events_pending_.store(false, std::memory_order_relaxed);
  }

  if (overflowed) {
    ++stats_.queue_overflows;
    flush_all();
    report.flushed = true;
    synced_version_ = std::max(synced_version_, overflow_version);
    if (flush_sink_) flush_sink_();
  }
  revalidate_coalesced(drained_, resolver_ ? &resolver_ : nullptr, report);
  report.events = drained_.size();
  if (events_sink_ && !drained_.empty()) events_sink_(drained_);
  drained_.clear();
  if (report.evicted > 0) prune_empty_subtables();
  return report;
}

void MegaflowCache::revalidate_coalesced(
    std::span<const TableChangeEvent> events, const Resolver* resolver,
    RevalidateReport& report) {
  // Fold the whole burst into one plan: DELETE rule-id sets are unioned
  // into one sorted membership set (their matches kept to look the
  // suspects up by), ADD matches are merged by containment (a match
  // whose cover set lies inside an already-kept match cannot mark any
  // extra entry suspect), MODIFYs need no megaflow work at all (winners
  // are unchanged and rules resolve live by id).
  plan_removed_.clear();
  plan_adds_.clear();
  plan_deletes_.clear();
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
      plan_deletes_.push_back(&event.match);
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
  if (scan_events > 0) {
    stats_.reval_coalesced_events += scan_events - 1;
    std::sort(plan_removed_.begin(), plan_removed_.end());
    // One bit per removed id modulo 64: an entry whose bit is clear skips
    // the set probe, a branch that mispredicts on most entries.
    std::uint64_t removed_bits = 0;
    for (const RuleId removed : plan_removed_) {
      removed_bits |= std::uint64_t{1} << (removed & 63);
    }
    // ONE pass over the suspects, whatever the burst size was.
    ++stats_.reval_batches;
    ++report.batches;
    for (auto& subtable : subtables_) {
      revalidate_subtable(*subtable, stats_.reval_batches, removed_bits,
                          max_version, resolver, report);
    }
  }
  // Pointers into `events` must not outlive this drain.
  plan_adds_.clear();
  plan_deletes_.clear();
}

void MegaflowCache::revalidate_subtable(Subtable& subtable,
                                        std::uint64_t drain,
                                        std::uint64_t removed_bits,
                                        std::uint64_t max_version,
                                        const Resolver* resolver,
                                        RevalidateReport& report) {
  // The merged ADD terms and the DELETE matches, compiled for this
  // subtable's mask. An entry is suspect iff its rule was removed or a
  // term passes it; every suspect passes one of the queries (see the
  // file comment), so the query buckets hold them all.
  plan_queries_.clear();
  for (const openflow::Match* match : plan_adds_) {
    plan_queries_.push_back(compile_intersect(subtable.mask, *match));
  }
  for (const openflow::Match* match : plan_deletes_) {
    plan_queries_.push_back(compile_intersect(subtable.mask, *match));
  }
  const std::span<const openflow::CompiledMatch> terms(plan_queries_.data(),
                                                       plan_adds_.size());
  reval_candidates_.clear();
  const bool indexed = subtable.indexes.serves(plan_queries_, drain);
  if (indexed) {
    const std::size_t probes =
        subtable.indexes.collect(plan_queries_, reval_candidates_);
    stats_.reval_index_probes += probes;
    report.index_probes += probes;
    std::sort(reval_candidates_.begin(), reval_candidates_.end());
    reval_candidates_.erase(
        std::unique(reval_candidates_.begin(), reval_candidates_.end()),
        reval_candidates_.end());
    if (reval_candidates_.empty()) {
      ++stats_.subtables_skipped;
      ++report.subtables_skipped;
      return;
    }
  } else {
    reval_candidates_.resize(subtable.slots.size());
    std::iota(reval_candidates_.begin(), reval_candidates_.end(), 0u);
  }

  // Candidates in ascending slot order, as a scan over every entry meets
  // them. An eviction swap-fills its hole from the back, and a scan
  // examines the moved slot next: when that slot is a candidate it is
  // the last one pending, so it is taken from the back and examined in
  // its new position. Slot layout, and with it every later capacity
  // victim, is therefore exactly what the scan would leave. The per-entry
  // suspect test is a sorted-set membership probe (charged as
  // revalidate_per_entry) plus one compiled intersect test per merged ADD
  // term actually examined (each charged as revalidate_per_term).
  std::size_t suspects_here = 0;
  std::size_t examined = 0;
  std::size_t term_tests = 0;
  std::size_t end = reval_candidates_.size();
  for (std::size_t c = 0; c < end;) {
    const std::size_t i = reval_candidates_[c];
    Slot& slot = subtable.slots[i];
    ++examined;
    bool suspect = ((removed_bits >> (slot.rule & 63)) & 1) != 0 &&
                   std::binary_search(plan_removed_.begin(),
                                      plan_removed_.end(), slot.rule);
    if (!suspect && !terms.empty()) {
      // Terms in merge order up to the first hit: what
      // reval_term_tests counts and revalidate_per_term charges.
      const openflow::PackedKey key = openflow::pack(slot.key);
      std::size_t t = 0;
      while (t < terms.size() && !terms[t].matches(key)) ++t;
      suspect = t < terms.size();
      term_tests += suspect ? t + 1 : t;
    }
    if (!suspect) {
      ++c;
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
      // masked key — and therefore its hash, index lane and
      // revalidation buckets — is untouched.
      if (res.found && subsumes(subtable.mask, res.unwildcarded)) {
        slot.rule = res.rule;
        slot.version = max_version;
        keep = true;
      }
    }
    if (keep) {
      ++stats_.revalidated_kept;
      ++report.repaired;
      ++c;
      continue;
    }
    ++stats_.revalidated_evicted;
    ++report.evicted;
    const std::size_t last = subtable.slots.size() - 1;
    subtable.erase_at(i);
    --entries_;
    if (last != i && reval_candidates_[end - 1] == last) {
      --end;  // the moved candidate, now at `i`, is examined next
    } else {
      ++c;
    }
  }
  stats_.reval_entries_scanned += examined;
  report.entries_scanned += examined;
  stats_.reval_term_tests += term_tests;
  report.term_tests += term_tests;
  if (suspects_here == 0) {
    // Entries were examined but none was suspect: what an index bucket
    // shared with other values, or a pass without an index, cost.
    ++stats_.prefilter_false_positives;
  }
  if (!indexed && !subtable.slots.empty()) {
    subtable.indexes.build(
        plan_queries_, drain, static_cast<std::uint32_t>(subtable.slots.size()),
        [&subtable](std::uint32_t i) -> std::optional<openflow::PackedKey> {
          return openflow::pack(subtable.slots[i].key);
        });
  }
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
  if (lookups_since_rerank_ < kRankInterval) return;
  lookups_since_rerank_ = 0;
  ++stats_.reranks;
  for (auto& subtable : subtables_) {
    subtable->rank =
        (1.0 - kRankEwmaAlpha) * subtable->rank +
        kRankEwmaAlpha * static_cast<double>(subtable->window_hits);
    subtable->window_hits = 0;
  }
  std::stable_sort(subtables_.begin(), subtables_.end(),
                   [](const auto& a, const auto& b) {
                     return a->rank > b->rank;
                   });
}

MegaflowCache::Subtable& MegaflowCache::subtable_for(const MaskSpec& mask) {
  for (auto& subtable : subtables_) {
    if (subtable->mask == mask) return *subtable;
  }
  subtables_.push_back(std::make_unique<Subtable>(mask));
  return *subtables_.back();
}

void MegaflowCache::evict_one(const Subtable& protect) {
  // Shed from the coldest subtable holding entries (probe order is rank
  // order, so walk from the back) — but never the freshly appended entry
  // at the back of the caller's subtable.
  for (auto it = subtables_.rbegin(); it != subtables_.rend(); ++it) {
    Subtable& subtable = **it;
    const std::size_t limit = &subtable == &protect
                                  ? subtable.slots.size() - 1
                                  : subtable.slots.size();
    if (limit == 0) continue;  // empty, or only the just-inserted entry
    // Victim choice is a second-chance clock hand over the slots: an
    // entry hit since the hand last passed it loses its `referenced` bit
    // and is skipped, at most kClockProbeMax times; the first entry
    // without the bit is the victim, or the hand's own slot when every
    // probed entry had it. erase_at() swap-fills the hole from the back,
    // so a fixed victim index would consume the subtable's *tail* — the
    // newest entries, which under flow churn are the live working set.
    const std::size_t hand = evict_cursor_ % limit;
    std::size_t victim = hand;
    constexpr std::size_t kClockProbeMax = 8;
    for (std::size_t probe = 0; probe < kClockProbeMax && probe < limit;
         ++probe) {
      const std::size_t i = (hand + probe) % limit;
      Slot& slot = subtable.slots[i];
      if (!slot.referenced) {
        victim = i;
        break;
      }
      slot.referenced = false;
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

std::vector<MegaflowCache::EntryView> MegaflowCache::entries() const {
  std::vector<EntryView> out;
  out.reserve(entries_);
  for (const auto& subtable : subtables_) {
    for (const Slot& slot : subtable->slots) {
      out.push_back({subtable->mask, slot.key, slot.rule});
    }
  }
  return out;
}

}  // namespace hw::classifier
