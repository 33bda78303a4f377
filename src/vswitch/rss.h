#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "pkt/flow_key.h"

/// \file rss.h
/// RSS-style rx sharding for the multi-PMD datapath (docs/SCALEOUT.md).
///
/// Real OVS-DPDK spreads one port's flows over many PMD threads with NIC
/// RSS (or vhost multi-queue): the NIC hashes the 5-tuple into an
/// indirection table whose slots name rx queues, one queue per PMD. This
/// module is the software stand-in: the port's *home* engine polls the
/// physical ring and distributes each frame by `RssTable::hash` through a
/// per-switch indirection table into per-(port, engine) SPSC queues; every
/// engine classifies only the flows whose buckets it owns, against its own
/// private EMC + megaflow pair.
///
/// The hash deliberately excludes `in_port`: sharding exists to spread ONE
/// port's flows across engines, and the bypass detector must keep firing
/// regardless of which engine carries which direction of a chain (the
/// detector is purely flow-table-driven, so direction symmetry is not
/// required anywhere — proven by the scale-out regression tests).
///
/// Auto-load-balance (OVS `pmd-auto-lb`): distributors record per-bucket
/// packet counts; once a window of packets has been distributed, one
/// engine folds the window into per-engine EWMAs and migrates the hottest
/// engine's busiest buckets to the coldest engine. Each indirection slot
/// packs (owner, generation) into ONE atomic word, so a distributor can
/// never pair a new generation with a stale owner: the owner it reads is
/// exactly the owner of the generation it reads, and every packet is
/// enqueued to the engine that owned its bucket at distribution time.
/// A migration bumps the generation; packets distributed before it drain
/// from the old owner's queue, packets after it go to the new owner —
/// per-flow FIFO holds within each ownership generation, the same
/// guarantee hardware RSS rebalancing gives.
///
/// Thread-safety (ThreadedRuntime): slots and window counters are
/// atomics; the balance pass itself runs under a try-lock so concurrent
/// distributors never block on each other — at most one engine balances,
/// the rest skip.

namespace hw::vswitch {

struct RssConfig {
  bool enabled = false;  ///< shard each port's flows across the engine pool
  /// Indirection slots (power of two). More buckets = finer-grained
  /// migration; 128 matches common NIC RETA sizes.
  std::uint32_t buckets = 128;
  bool auto_balance = true;  ///< EWMA-driven bucket migration
  /// Distributed packets between balance checks (the EWMA window).
  std::uint32_t balance_interval = 8192;
  double ewma_alpha = 0.25;     ///< per-window load smoothing factor
  double imbalance_ratio = 1.25;  ///< hottest/mean EWMA ratio that triggers
  std::uint32_t max_migrations_per_check = 4;
};

struct RssStats {
  std::uint64_t rebalance_checks = 0;    ///< balance windows evaluated
  std::uint64_t rebalance_triggers = 0;  ///< checks that migrated >= 1 bucket
  std::uint64_t bucket_migrations = 0;   ///< individual bucket handoffs
};

/// The per-switch indirection table: hash -> bucket -> (owner engine,
/// generation), plus the per-bucket load window the balancer consumes.
class RssTable {
 public:
  RssTable(std::uint32_t buckets, std::uint32_t engines);

  /// The sharding hash: the flow 5-tuple with `in_port` masked out, so
  /// one port's flows spread over many engines (see file comment).
  [[nodiscard]] static std::uint32_t hash(pkt::FlowKey key) noexcept {
    key.in_port = 0;
    return pkt::flow_key_hash(key);
  }

  [[nodiscard]] std::uint32_t bucket_count() const noexcept {
    return mask_ + 1;
  }
  [[nodiscard]] std::uint32_t engine_count() const noexcept {
    return engines_;
  }
  [[nodiscard]] std::uint32_t bucket_of(std::uint32_t hash) const noexcept {
    return hash & mask_;
  }

  struct Slot {
    std::uint32_t owner = 0;
    std::uint64_t generation = 0;
  };

  /// One atomic load: the returned owner is the owner OF the returned
  /// generation (the stale-owner hazard a torn pair would create cannot
  /// happen).
  [[nodiscard]] Slot slot(std::uint32_t bucket) const noexcept {
    const std::uint64_t packed =
        slots_[bucket].load(std::memory_order_acquire);
    return Slot{.owner = static_cast<std::uint32_t>(packed >> kOwnerShift),
                .generation = packed & kGenMask};
  }

  [[nodiscard]] std::uint32_t owner_of(std::uint32_t hash) const noexcept {
    return slot(bucket_of(hash)).owner;
  }

  /// Distributor-side per-bucket load accounting (relaxed; the balancer
  /// consumes the window with exchange(0)).
  void record(std::uint32_t bucket) noexcept {
    window_[bucket].fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t take_window_load(std::uint32_t bucket) noexcept {
    return window_[bucket].exchange(0, std::memory_order_relaxed);
  }

  /// Hands `bucket` to `new_owner` and bumps its generation — one atomic
  /// release store, paired with the acquire load in slot().
  void migrate(std::uint32_t bucket, std::uint32_t new_owner) noexcept;

 private:
  static constexpr std::uint32_t kOwnerShift = 48;
  static constexpr std::uint64_t kGenMask = (1ULL << kOwnerShift) - 1;

  std::uint32_t mask_;
  std::uint32_t engines_;
  std::vector<std::atomic<std::uint64_t>> slots_;   ///< owner<<48 | generation
  std::vector<std::atomic<std::uint64_t>> window_;  ///< pkts since last check
};

/// Indirection table + auto-load-balancer + stats, shared by all of one
/// switch's engines.
class RssSharder {
 public:
  RssSharder(const RssConfig& config, std::uint32_t engines);

  [[nodiscard]] RssTable& table() noexcept { return table_; }
  [[nodiscard]] const RssTable& table() const noexcept { return table_; }

  /// Distributor-side: accounts `n` freshly distributed packets. Returns
  /// true when the balance window filled and the caller should run
  /// rebalance() (and charge the check's cycles).
  [[nodiscard]] bool note_distributed(std::uint32_t n) noexcept;

  /// One EWMA balance pass: fold the window into per-engine EWMAs, then
  /// migrate the hottest engine's busiest buckets to the coldest engine
  /// while the hottest EWMA exceeds imbalance_ratio x mean. Callable from
  /// any engine; a try-lock makes concurrent callers no-ops.
  void rebalance();

  [[nodiscard]] RssStats stats() const noexcept {
    return RssStats{
        .rebalance_checks = checks_.load(std::memory_order_relaxed),
        .rebalance_triggers = triggers_.load(std::memory_order_relaxed),
        .bucket_migrations = migrations_.load(std::memory_order_relaxed)};
  }

 private:
  RssConfig config_;
  RssTable table_;
  std::atomic<std::uint64_t> window_total_{0};

  std::mutex balance_mutex_;
  // Balancer state, guarded by balance_mutex_ (scratch included, so a
  // balance pass allocates nothing).
  std::vector<double> ewma_;
  std::vector<double> window_by_engine_;
  std::vector<std::uint64_t> bucket_load_;

  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> triggers_{0};
  std::atomic<std::uint64_t> migrations_{0};
};

}  // namespace hw::vswitch
