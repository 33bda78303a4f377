#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

/// \file topk.h
/// SpaceSaving heavy-hitter sketch (Metwally et al.): tracks the
/// approximate top-k keys of a stream in O(capacity) memory regardless of
/// how many distinct keys flow past. Used by the workload generator to
/// report what fraction of offered load the hottest flows carry — the
/// quantity EMC hit-rate should track under skew. The generator offers
/// it every 16th pick. An offer scans the slots for its key, and one that
/// misses scans them again for the first minimum it evicts: at the
/// default 64 slots that beats keeping a hash index beside them, whose
/// erase and emplace on every miss cost more than both scans.

namespace hw {

class TopKSketch {
 public:
  /// A tracked key and its count, which overestimates the key's true
  /// count by at most the smallest tracked count.
  struct Slot {
    std::uint64_t key;
    std::uint64_t count;
  };

  explicit TopKSketch(std::size_t capacity = 64) : capacity_(capacity) {
    slots_.reserve(capacity_);
  }

  void offer(std::uint64_t key) noexcept {
    ++total_;
    for (Slot& slot : slots_) {
      if (slot.key == key) {
        ++slot.count;
        return;
      }
    }
    if (slots_.size() < capacity_) {
      slots_.push_back({key, 1});
      return;
    }
    // Evict the first minimum; the newcomer inherits its count + 1
    // (SpaceSaving's overestimate bound: error <= min_count).
    std::size_t min_i = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].count < slots_[min_i].count) min_i = i;
    }
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
  /// The tracked slots, in the order they were first filled.
  [[nodiscard]] std::span<const Slot> slots() const noexcept {
    return slots_;
  }

 private:
  std::size_t capacity_;
  std::vector<Slot> slots_;  // unordered; linear scans find and evict
  std::uint64_t total_ = 0;
};

}  // namespace hw
