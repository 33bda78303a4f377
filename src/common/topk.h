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
/// it every 16th pick. Keys and counts sit in two arrays: an offer scans
/// the keys for its own, and one that misses scans the counts for the
/// first minimum it evicts. At the default 64 slots both scans beat a
/// hash index beside them, whose erase and emplace on every miss cost
/// more, and two flat arrays scan faster than one array of key/count
/// pairs.

namespace hw {

class TopKSketch {
 public:
  explicit TopKSketch(std::size_t capacity = 64) : capacity_(capacity) {
    keys_.reserve(capacity_);
    counts_.reserve(capacity_);
  }

  void offer(std::uint64_t key) noexcept {
    ++total_;
    const auto hit = std::find(keys_.begin(), keys_.end(), key);
    if (hit != keys_.end()) {
      ++counts_[static_cast<std::size_t>(hit - keys_.begin())];
      return;
    }
    if (keys_.size() < capacity_) {
      keys_.push_back(key);
      counts_.push_back(1);
      return;
    }
    // Evict the first minimum; the newcomer inherits its count + 1
    // (SpaceSaving's overestimate bound: error <= min_count).
    const auto victim = static_cast<std::size_t>(
        std::min_element(counts_.begin(), counts_.end()) - counts_.begin());
    keys_[victim] = key;
    ++counts_[victim];
  }

  /// Fraction of the stream attributed to the k largest tracked counters.
  /// Overestimates slightly for keys that entered via eviction.
  [[nodiscard]] double share(std::size_t k) const {
    if (total_ == 0 || k == 0) return 0.0;
    std::vector<std::uint64_t> counts = counts_;
    if (k > counts.size()) k = counts.size();
    std::partial_sort(counts.begin(), counts.begin() + static_cast<std::ptrdiff_t>(k),
                      counts.end(), std::greater<>());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < k; ++i) sum += counts[i];
    const double frac = static_cast<double>(sum) / static_cast<double>(total_);
    return frac > 1.0 ? 1.0 : frac;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t tracked() const noexcept { return keys_.size(); }
  /// The tracked keys, in the order they were first filled.
  [[nodiscard]] std::span<const std::uint64_t> keys() const noexcept {
    return keys_;
  }
  /// counts()[i] is keys()[i]'s count, which overestimates the key's true
  /// count by at most the smallest tracked count.
  [[nodiscard]] std::span<const std::uint64_t> counts() const noexcept {
    return counts_;
  }

 private:
  std::size_t capacity_;
  // Parallel and unordered; linear scans find and evict.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace hw
