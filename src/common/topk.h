#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

/// \file topk.h
/// SpaceSaving heavy-hitter sketch (Metwally et al.): tracks the
/// approximate top-k keys of a stream in O(capacity) memory regardless of
/// how many distinct keys flow past. Used by the workload generator to
/// report what fraction of offered load the hottest flows carry — the
/// quantity EMC hit-rate should track under skew. The generator offers
/// it every 16th pick, since an offer that misses the tracked keys costs
/// a linear min-scan plus a hash-map erase and emplace.

namespace hw {

class TopKSketch {
 public:
  explicit TopKSketch(std::size_t capacity = 64) : capacity_(capacity) {
    slots_.reserve(capacity_);
    index_.reserve(capacity_ * 2);
  }

  void offer(std::uint64_t key) noexcept {
    ++total_;
    if (const auto it = index_.find(key); it != index_.end()) {
      ++slots_[it->second].count;
      return;
    }
    if (slots_.size() < capacity_) {
      index_.emplace(key, slots_.size());
      slots_.push_back({key, 1});
      return;
    }
    // Evict the current minimum; the newcomer inherits its count + 1
    // (SpaceSaving's overestimate bound: error <= min_count).
    std::size_t min_i = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].count < slots_[min_i].count) min_i = i;
    }
    index_.erase(slots_[min_i].key);
    index_.emplace(key, min_i);
    slots_[min_i].key = key;
    ++slots_[min_i].count;
  }

  /// Fraction of the stream attributed to the k largest tracked counters.
  /// Overestimates slightly for keys that entered via eviction.
  [[nodiscard]] double share(std::size_t k) const {
    if (total_ == 0 || k == 0) return 0.0;
    std::vector<std::uint64_t> counts;
    counts.reserve(slots_.size());
    for (const Slot& s : slots_) counts.push_back(s.count);
    if (k > counts.size()) k = counts.size();
    std::partial_sort(counts.begin(), counts.begin() + static_cast<std::ptrdiff_t>(k),
                      counts.end(), std::greater<>());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < k; ++i) sum += counts[i];
    const double frac = static_cast<double>(sum) / static_cast<double>(total_);
    return frac > 1.0 ? 1.0 : frac;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t tracked() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t count;
  };

  std::size_t capacity_;
  std::vector<Slot> slots_;  // unordered; linear min-scan on eviction
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::uint64_t total_ = 0;
};

}  // namespace hw
