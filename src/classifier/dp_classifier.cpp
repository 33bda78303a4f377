#include "classifier/dp_classifier.h"

#include "exec/runtime.h"
#include "telemetry/metrics.h"

namespace hw::classifier {

using flowtable::FlowEntry;
using flowtable::TableChangeEvent;

DpClassifier::DpClassifier(flowtable::FlowTable& table,
                           const exec::CostModel& cost,
                           DpClassifierConfig config)
    : table_(&table),
      cost_(&cost),
      config_(config),
      emc_(kEmcBuckets) {
  // Every drain of the change queue — explicit or implicit inside
  // megaflow lookup/insert — must repair BOTH tiers, so the EMC work is
  // registered as hooks on the queue owner rather than replayed by hand
  // (an event consumed without the EMC seeing it could leave a stale
  // exact-match slot serving forever).
  megaflow_.set_revalidation_hooks(
      [this](const pkt::FlowKey& key) { return resolve(key, nullptr); },
      [this](std::span<const TableChangeEvent> events) {
        if (!config_.emc_enabled || events.empty()) return;
        // The EMC coalesces the same way the megaflow tier does: one
        // pass over the slots for the whole drained batch.
        const auto counts = emc_.revalidate_batch(events, *table_);
        emc_accum_.scanned += counts.scanned;
        emc_accum_.index_probes += counts.index_probes;
        emc_accum_.repaired += counts.repaired;
        emc_accum_.evicted += counts.evicted;
        counters_.emc_revalidations += counts.repaired + counts.evicted;
      },
      [this] {
        // Full-flush fallback (queue overflow): the EMC can no longer be
        // trusted slot-by-slot either.
        emc_.clear();
      });
  if (config_.emc_enabled || config_.megaflow_enabled) {
    // The callback fires inside FlowTable::apply(), which runs on the
    // same thread as every lookup (flow_table.h's threading contract:
    // the table's readers take no lock). It only queues the event
    // (mutex-guarded, one relaxed atomic on the hot path), and the
    // revalidator applies it on the cache owner's next lookup; the queue
    // is the one structure here that may cross threads. Both tiers feed
    // off the same queue.
    listener_token_ = table_->subscribe([this](const TableChangeEvent& event) {
      megaflow_.on_table_change(event);
    });
  }
}

DpClassifier::~DpClassifier() {
  if (listener_token_ != 0) table_->unsubscribe(listener_token_);
}

MegaflowCache::Resolution DpClassifier::resolve(const pkt::FlowKey& key,
                                                std::uint32_t* visited)
    noexcept {
  // Mirrors the OVS upcall: the unwildcard set covers *every* rule the
  // priority-order scan examines, so the installed/repaired megaflow is
  // exactly as wide as this lookup's evidence allows. A coarser mask
  // could swallow packets a higher-priority rule would have claimed. The
  // rules examined are every entry up to and including the winner (all
  // of them on a miss); the table keeps the unite of each such prefix,
  // so the set is one read after the scan, with no fold per rule.
  MegaflowCache::Resolution res;
  const std::size_t hit = table_->first_match(openflow::pack(key));
  res.found = hit < table_->size();
  const std::size_t examined = res.found ? hit + 1 : table_->size();
  res.unwildcarded = table_->unwildcarded(examined);
  if (res.found) res.rule = table_->entries()[hit].id;
  if (visited != nullptr) *visited = static_cast<std::uint32_t>(examined);
  return res;
}

TimeNs DpClassifier::trace_base() const noexcept {
  // Epoch start, not now_ns(): now_with() adds this context's burned
  // cycles itself, so a sub-epoch base would count them twice and let
  // later passes drift past their enclosing burst span.
  return trace_clock_ != nullptr ? trace_clock_->epoch_start_ns() : 0;
}

void DpClassifier::drain_table_changes(exec::CycleMeter& meter) {
  if (!megaflow_.has_pending_changes()) return;
  // Span only around drains with pending work, so an idle steady state
  // produces no reval spans at all.
  const std::uint64_t scanned_before =
      megaflow_.stats().reval_entries_scanned + emc_accum_.scanned;
  telemetry::ScopedSpan span(tracer_, "drain", "reval", trace_track_,
                             trace_base(), &meter, cost_);
  (void)megaflow_.revalidate();
  charge_reval_work(meter);
  span.set_args(reval_seen_.scanned - scanned_before,
                megaflow_.stats().reval_coalesced_events);
}

void DpClassifier::charge_reval_work(exec::CycleMeter& meter) {
  // Bill the delta of revalidation work since the last call — whatever
  // path performed it (explicit drain, or a drain triggered inside a
  // megaflow lookup/insert): one lookup per index bucket probed, cheap
  // suspect test per entry examined, full re-lookup per repair/evict,
  // both tiers.
  const MegaflowStats& stats = megaflow_.stats();
  RevalWork now;
  now.scanned = stats.reval_entries_scanned + emc_accum_.scanned;
  now.repaired = stats.revalidated_kept + emc_accum_.repaired;
  now.evicted = stats.revalidated_evicted + emc_accum_.evicted;
  now.term_tests = stats.reval_term_tests;
  now.index_probes = stats.reval_index_probes + emc_accum_.index_probes;
  meter.charge(
      static_cast<Cycles>(now.scanned - reval_seen_.scanned) *
          cost_->revalidate_per_entry +
      static_cast<Cycles>(now.term_tests - reval_seen_.term_tests) *
          cost_->revalidate_per_term +
      static_cast<Cycles>(now.index_probes - reval_seen_.index_probes) *
          cost_->megaflow_prefilter_check +
      static_cast<Cycles>(now.repaired - reval_seen_.repaired) *
          cost_->revalidate_repair +
      static_cast<Cycles>(now.evicted - reval_seen_.evicted) *
          cost_->revalidate_evict);
  reval_seen_ = now;
}

Cycles DpClassifier::tally_cycles(const ProbeTally& tally,
                                  bool batched) const noexcept {
  // Per-probe base: a single-key probe pays mask + hash + dispatch per
  // subtable; the batch loop amortizes mask load, rank dispatch and EWMA
  // accounting across the batch. Cuckoo bucket reads and full masked
  // compares are charged identically at both rates.
  const std::uint32_t per_probe = batched ? cost_->megaflow_batch_packet
                                          : cost_->megaflow_per_subtable;
  return static_cast<Cycles>(tally.probes) * per_probe +
         static_cast<Cycles>(tally.sig_blocks) * cost_->megaflow_sig_block +
         static_cast<Cycles>(tally.full_compares) *
             cost_->megaflow_full_compare;
}

TierCounters DpClassifier::counters() const noexcept {
  // The cache's own stats also cover any drain its lookup/insert applied.
  const MegaflowStats& stats = megaflow_.stats();
  TierCounters out = counters_;
  out.megaflow_invalidations = stats.flushes;
  out.megaflow_revalidations = stats.revalidations;
  out.megaflow_revalidation_evictions = stats.revalidated_evicted;
  out.sig_hits = stats.sig_hits;
  out.sig_false_positives = stats.sig_false_positives;
  out.reval_batches = stats.reval_batches;
  out.reval_entries_scanned = stats.reval_entries_scanned + emc_accum_.scanned;
  out.reval_coalesced_events = stats.reval_coalesced_events;
  out.simd_blocks = stats.simd_blocks;
  out.subtables_skipped = stats.subtables_skipped;
  out.prefilter_false_positives = stats.prefilter_false_positives;
  return out;
}

LookupOutcome DpClassifier::slow_path(const pkt::FlowKey& key,
                                      std::uint32_t hash,
                                      std::uint64_t version,
                                      exec::CycleMeter& meter) {
  // Tier 3: slow path — priority-ordered wildcard scan.
  //
  // slow_path_base is charged unconditionally, including in "table-only"
  // configurations: in OVS the wildcard table lives in ovs-vswitchd
  // behind the upcall boundary, so a switch with no datapath caches pays
  // the upcall on every packet. That is the baseline the caches are
  // measured against — not a hypothetical inline scan.
  ++counters_.slow_path_lookups;
  meter.charge(cost_->slow_path_base);
  std::uint32_t visited = 0;
  const MegaflowCache::Resolution res = resolve(key, &visited);
  meter.charge(static_cast<Cycles>(visited) * cost_->classifier_per_rule);
  if (!res.found) {
    ++counters_.slow_path_misses;
    return {nullptr, Tier::kMiss};
  }
  FlowEntry* hit = table_->find(res.rule);
  if (config_.megaflow_enabled) {
    megaflow_.insert(key, res.unwildcarded, res.rule, version);
    ++counters_.megaflow_inserts;
    meter.charge(cost_->megaflow_insert);
  }
  if (config_.emc_enabled) {
    emc_.insert(key, hash, res.rule, hit->generation);
  }
  return {hit, Tier::kSlowPath};
}

FlowEntry* DpClassifier::probe_emc(const pkt::FlowKey& key,
                                   std::uint32_t hash,
                                   exec::CycleMeter& meter) {
  meter.charge(cost_->emc_hit);
  if (FlowEntry* entry = emc_.lookup(key, hash, *table_); entry != nullptr) {
    ++counters_.emc_hits;
    return entry;
  }
  ++counters_.emc_misses;
  return nullptr;
}

LookupOutcome DpClassifier::probe_caches(const pkt::FlowKey& key,
                                         std::uint32_t hash,
                                         std::uint64_t version,
                                         exec::CycleMeter& meter) {
  // Tier 1: exact-match cache. Generation-stamped: a surviving megaflow
  // revalidation leaves untouched EMC slots serving.
  if (config_.emc_enabled) {
    if (FlowEntry* entry = probe_emc(key, hash, meter); entry != nullptr) {
      return {entry, Tier::kEmc};
    }
  }

  // Tier 2: megaflow tuple-space search (cuckoo-indexed subtables).
  if (config_.megaflow_enabled) {
    ProbeTally tally;
    const RuleId id = megaflow_.lookup(key, version, tally);
    meter.charge(tally_cycles(tally, /*batched=*/false));
    if (id != kRuleNone) {
      FlowEntry* entry = table_->find(id);
      if (entry != nullptr) {
        ++counters_.megaflow_hits;
        // Promote to the EMC so the steady state of this flow is tier 1.
        if (config_.emc_enabled) {
          emc_.insert(key, hash, id, entry->generation);
        }
        return {entry, Tier::kMegaflow};
      }
    }
    ++counters_.megaflow_misses;
  }
  return {nullptr, Tier::kMiss};
}

void DpClassifier::lookup_batch(std::span<const pkt::FlowKey> keys,
                                std::span<const std::uint32_t> hashes,
                                std::span<LookupOutcome> out,
                                exec::CycleMeter& meter) {
  // One drain and one version snapshot cover the whole batch: every
  // event applied here is visible to all three tier passes below.
  drain_table_changes(meter);
  const std::uint64_t version = table_->version();
  meter.charge(cost_->classify_batch_base);
  ++counters_.batches;
  counters_.batch_packets += keys.size();

  // Tier 1 pass: EMC for every packet; misses queue for tier 2.
  batch_miss_.clear();
  {
    telemetry::ScopedSpan span(tracer_, "emc_pass", "classify", trace_track_,
                               trace_base(), &meter, cost_);
    for (std::uint32_t i = 0; i < keys.size(); ++i) {
      out[i] = {nullptr, Tier::kMiss};
      if (config_.emc_enabled) {
        if (FlowEntry* entry = probe_emc(keys[i], hashes[i], meter);
            entry != nullptr) {
          out[i] = {entry, Tier::kEmc};
          continue;
        }
      }
      batch_miss_.push_back(i);
    }
    span.set_args(keys.size(), keys.size() - batch_miss_.size());
  }

  // Tier 2 pass: one megaflow batch probe over the whole miss set.
  if (config_.megaflow_enabled && !batch_miss_.empty()) {
    telemetry::ScopedSpan span(tracer_, "megaflow_pass", "classify",
                               trace_track_, trace_base(), &meter, cost_);
    const std::size_t pass_size = batch_miss_.size();
    batch_keys_.clear();
    for (const std::uint32_t i : batch_miss_) batch_keys_.push_back(keys[i]);
    batch_rules_.assign(batch_miss_.size(), kRuleNone);
    ProbeTally tally;
    megaflow_.lookup_batch(batch_keys_, version, batch_rules_, tally);
    meter.charge(tally_cycles(tally, /*batched=*/true));
    std::size_t still_missing = 0;
    for (std::size_t j = 0; j < batch_miss_.size(); ++j) {
      const std::uint32_t i = batch_miss_[j];
      FlowEntry* entry =
          batch_rules_[j] != kRuleNone ? table_->find(batch_rules_[j]) : nullptr;
      if (entry != nullptr) {
        ++counters_.megaflow_hits;
        if (config_.emc_enabled) {
          emc_.insert(keys[i], hashes[i], batch_rules_[j], entry->generation);
        }
        out[i] = {entry, Tier::kMegaflow};
        continue;
      }
      ++counters_.megaflow_misses;
      batch_miss_[still_missing++] = i;
    }
    batch_miss_.resize(still_missing);
    span.set_args(pass_size, pass_size - still_missing);
  }

  // Tier 3 pass: the remaining packets upcall, and all their megaflow
  // installs land in this one pass over the batch. Once any upcall in
  // this pass has found a rule (and therefore filled the caches), later
  // packets re-probe the caches first, so a burst of 32 packets behind
  // one fresh wildcard rule pays one upcall, not 32. While every upcall
  // keeps missing, the caches stay empty and a re-probe could not hit.
  telemetry::ScopedSpan slow_span(
      tracer_, "slowpath_pass", "classify", trace_track_, trace_base(),
      &meter, cost_);
  if (batch_miss_.empty()) {
    slow_span.cancel();
  } else {
    slow_span.set_args(batch_miss_.size());
  }
  bool installed = false;
  for (const std::uint32_t i : batch_miss_) {
    if (installed) {
      // A single-key re-probe: the batch-amortized rate does not apply.
      const LookupOutcome cached =
          probe_caches(keys[i], hashes[i], version, meter);
      if (cached.entry != nullptr) {
        out[i] = cached;
        continue;
      }
    }
    out[i] = slow_path(keys[i], hashes[i], version, meter);
    installed = installed || out[i].entry != nullptr;
  }
  charge_reval_work(meter);
}

namespace {

/// A gauge callback: `hits` as a share of the lookups `source` counted
/// since the callback's previous run.
std::function<double()> window_hit_rate(
    std::function<TierCounters()> source, std::uint64_t TierCounters::*hits) {
  return [source = std::move(source), hits,
          prev = TierCounters{}]() mutable {
    const TierCounters now = source();
    const TierCounters window = now - prev;
    prev = now;
    const std::uint64_t lookups =
        window.emc_hits + window.megaflow_hits + window.slow_path_lookups;
    return lookups == 0 ? 0.0
                        : static_cast<double>(window.*hits) /
                              static_cast<double>(lookups);
  };
}

}  // namespace

void register_hit_rate_gauges(telemetry::MetricsRegistry& registry,
                              const std::function<TierCounters()>& source) {
  registry.gauge("dp.emc_hit_rate")
      .set_callback(window_hit_rate(source, &TierCounters::emc_hits));
  registry.gauge("dp.megaflow_hit_rate")
      .set_callback(window_hit_rate(source, &TierCounters::megaflow_hits));
}

}  // namespace hw::classifier
