#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "common/types.h"

/// \file latency.h
/// Fixed-footprint latency aggregator: count/sum/min/max plus a log2
/// histogram for approximate quantiles. No allocation after construction,
/// so sinks can record on the packet path. It is the tree's one
/// distribution type: every traffic sink records one-way latency into it
/// (pkt::Endpoint), and INT collection records per-hop transit
/// (vm::IntHopStats).

namespace hw {

class LatencyRecorder {
 public:
  static constexpr std::size_t kBuckets = 40;  // 1 ns .. ~550 s

  void record(TimeNs latency_ns) noexcept {
    ++count_;
    sum_ += latency_ns;
    min_ = count_ == 1 ? latency_ns : std::min(min_, latency_ns);
    max_ = std::max(max_, latency_ns);
    const std::size_t bucket =
        latency_ns == 0
            ? 0
            : std::min<std::size_t>(kBuckets - 1,
                                    std::bit_width(latency_ns) - 1);
    ++buckets_[bucket];
  }

  void reset() noexcept {
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
    buckets_.fill(0);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] TimeNs min() const noexcept { return min_; }
  [[nodiscard]] TimeNs max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Approximate quantile (q in [0,1]) from the log2 histogram. The q-th
  /// sample's bucket yields the estimate: its upper bound clamped to max_
  /// — except in the lowest occupied bucket, where max(min_, lower bound)
  /// is exact whenever that bucket holds a single distinct value (bucket
  /// 0 holds both 0 ns and 1 ns; the upper bound alone misreported an
  /// all-zero distribution as 1 ns and ignored min_ entirely). When every
  /// sample shares that one bucket, [min_, max_] is tighter than either
  /// bucket bound, and the estimate interpolates across it by q: the
  /// lower bound alone would read min_ at every q.
  [[nodiscard]] TimeNs quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t seen = 0;
    bool lowest_occupied = true;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      seen += buckets_[i];
      if (seen >= target) {
        if (buckets_[i] == count_) {
          return min_ + static_cast<TimeNs>(
                            q * static_cast<double>(max_ - min_));
        }
        if (lowest_occupied) {
          return std::max(min_, i == 0 ? TimeNs{0} : TimeNs{1} << i);
        }
        return std::min(max_, (TimeNs{1} << (i + 1)) - 1);
      }
      lowest_occupied = false;
    }
    return max_;
  }

  /// Combines another recorder's samples into this one (used to aggregate
  /// per-sink measurements into one chain-level distribution).
  void merge(const LatencyRecorder& other) noexcept {
    if (other.count_ == 0) return;
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  TimeNs min_ = 0;
  TimeNs max_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

}  // namespace hw
