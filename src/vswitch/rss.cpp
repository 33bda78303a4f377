#include "vswitch/rss.h"

#include <algorithm>
#include <cassert>

namespace hw::vswitch {

namespace {

constexpr bool is_pow2(std::uint32_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

}  // namespace

RssTable::RssTable(std::uint32_t buckets, std::uint32_t engines)
    : mask_(buckets - 1),
      engines_(engines),
      slots_(buckets),
      window_(buckets) {
  assert(is_pow2(buckets) && "RSS bucket count must be a power of two");
  assert(engines > 0);
  (void)is_pow2;
  // Seed the indirection table round-robin, the same spread a NIC RETA
  // gets from its default programming: bucket b -> engine b % N, gen 0.
  for (std::uint32_t b = 0; b < buckets; ++b) {
    slots_[b].store(static_cast<std::uint64_t>(b % engines_) << kOwnerShift,
                    std::memory_order_relaxed);
    window_[b].store(0, std::memory_order_relaxed);
  }
}

void RssTable::migrate(std::uint32_t bucket, std::uint32_t new_owner) noexcept {
  assert(new_owner < engines_);
  const std::uint64_t old_packed = slots_[bucket].load(std::memory_order_relaxed);
  const std::uint64_t next_gen = (old_packed & kGenMask) + 1;
  slots_[bucket].store(
      (static_cast<std::uint64_t>(new_owner) << kOwnerShift) |
          (next_gen & kGenMask),
      std::memory_order_release);
}

RssSharder::RssSharder(const RssConfig& config, std::uint32_t engines)
    : config_(config),
      table_(config.buckets, engines),
      ewma_(engines, 0.0),
      window_by_engine_(engines, 0.0),
      bucket_load_(config.buckets, 0) {}

bool RssSharder::note_distributed(std::uint32_t n) noexcept {
  if (!config_.auto_balance) {
    return false;
  }
  const std::uint64_t total =
      window_total_.fetch_add(n, std::memory_order_relaxed) + n;
  return total >= config_.balance_interval;
}

void RssSharder::rebalance() {
  std::unique_lock<std::mutex> lock(balance_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    return;  // another engine is mid-balance; this window rides along
  }
  window_total_.store(0, std::memory_order_relaxed);
  checks_.fetch_add(1, std::memory_order_relaxed);

  const std::uint32_t engines = table_.engine_count();
  const std::uint32_t buckets = table_.bucket_count();

  // Fold this window's per-bucket loads into per-engine totals, then EWMA.
  std::fill(window_by_engine_.begin(), window_by_engine_.end(), 0.0);
  for (std::uint32_t b = 0; b < buckets; ++b) {
    bucket_load_[b] = table_.take_window_load(b);
    window_by_engine_[table_.slot(b).owner] +=
        static_cast<double>(bucket_load_[b]);
  }
  double total = 0.0;
  for (std::uint32_t e = 0; e < engines; ++e) {
    ewma_[e] = config_.ewma_alpha * window_by_engine_[e] +
               (1.0 - config_.ewma_alpha) * ewma_[e];
    total += ewma_[e];
  }
  const double mean = total / static_cast<double>(engines);
  if (mean <= 0.0) {
    return;
  }

  bool migrated_any = false;
  for (std::uint32_t round = 0; round < config_.max_migrations_per_check;
       ++round) {
    const auto hot_it = std::max_element(ewma_.begin(), ewma_.end());
    const auto cold_it = std::min_element(ewma_.begin(), ewma_.end());
    const auto hot = static_cast<std::uint32_t>(hot_it - ewma_.begin());
    const auto cold = static_cast<std::uint32_t>(cold_it - ewma_.begin());
    if (hot == cold || *hot_it < config_.imbalance_ratio * mean) {
      break;
    }
    // The hot engine's busiest bucket this window; migrating a dead
    // bucket would change nothing, so require observed load.
    std::uint32_t victim = buckets;
    std::uint64_t victim_load = 0;
    for (std::uint32_t b = 0; b < buckets; ++b) {
      if (table_.slot(b).owner == hot && bucket_load_[b] > victim_load) {
        victim = b;
        victim_load = bucket_load_[b];
      }
    }
    if (victim == buckets) {
      break;  // hot by EWMA history only; nothing movable this window
    }
    table_.migrate(victim, cold);
    bucket_load_[victim] = 0;
    // Shift the migrated bucket's smoothed share so one check can move
    // several distinct buckets instead of re-picking the same one.
    const double share =
        config_.ewma_alpha * static_cast<double>(victim_load);
    ewma_[hot] -= share;
    ewma_[cold] += share;
    migrations_.fetch_add(1, std::memory_order_relaxed);
    migrated_any = true;
  }
  if (migrated_any) {
    triggers_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace hw::vswitch
