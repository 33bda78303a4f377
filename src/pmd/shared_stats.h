#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "analysis/annotate.h"
#include "common/status.h"
#include "common/types.h"
#include "openflow/messages.h"
#include "shm/shm.h"

/// \file shared_stats.h
/// The shared statistics memory of the paper: "each time a packet is sent
/// through the bypass channel, [the PMD] increases the counters associated
/// to that OpenFlow rule and port, which are stored in a shared memory.
/// When OvS needs to export statistics, it just reads the proper values
/// from that shared memory."
///
/// Layout: fixed arrays of cache-line-sized counters — per-port RX/TX and
/// per-rule slots. Rule slots are allocated by the BypassManager when a
/// bypass is established and communicated to the TX-side PMD over the
/// control channel. Counters are relaxed atomics read by the switch on
/// stats requests. A rule slot has a single writer (the TX-side PMD of
/// one bypass direction) and publishes each burst under a sequence count,
/// so a flow-stats read always sees packets and bytes of the same bursts.

namespace hw::pmd {

/// Sized for the fleet regime (kMaxPorts endpoints, one rule slot per
/// bypass direction): ports must NOT alias modulo this — aliased slots
/// would mix two ports' counters and break the exact-stats transparency
/// claim at scale. 3 × 4096 cache-line counters ≈ 768 KiB of shared
/// memory, allocated once per switch.
inline constexpr std::size_t kStatsMaxPorts = 4096;
inline constexpr std::size_t kStatsMaxRules = 4096;
inline constexpr std::uint32_t kStatsSlotNone = 0xffffffff;
inline constexpr std::uint32_t kStatsMagic = 0x53544154;  // "STAT"

struct alignas(kCacheLineSize) PktByteCounter {
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> bytes{0};

  void add(std::uint64_t pkt_count, std::uint64_t byte_count) noexcept {
    HW_ATOMIC_WRITE(&packets);
    HW_ATOMIC_WRITE(&bytes);
    packets.fetch_add(pkt_count, std::memory_order_relaxed);
    bytes.fetch_add(byte_count, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pkts() const noexcept {
    HW_ATOMIC_READ(&packets);
    return packets.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t byte_total() const noexcept {
    HW_ATOMIC_READ(&bytes);
    return bytes.load(std::memory_order_relaxed);
  }
  void clear() noexcept {
    HW_ATOMIC_WRITE(&packets);
    HW_ATOMIC_WRITE(&bytes);
    packets.store(0, std::memory_order_relaxed);
    bytes.store(0, std::memory_order_relaxed);
  }
};

/// A rule slot's (packets, bytes) pair as a single-writer seqlock: `seq`
/// is odd while the writer updates the pair, and a reader retries until
/// it saw the same even `seq` before and after loading both halves.
struct alignas(kCacheLineSize) RuleCounter {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> bytes{0};

  /// add() and clear() need a single writer at a time: the slot's TX-side
  /// PMD while its bypass is up, the switch once teardown recycles it.
  void add(std::uint64_t pkt_count, std::uint64_t byte_count) noexcept {
    publish(packets.load(std::memory_order_relaxed) + pkt_count,
            bytes.load(std::memory_order_relaxed) + byte_count);
  }
  void clear() noexcept { publish(0, 0); }
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> read() const noexcept {
    HW_ATOMIC_READ(&seq);
    HW_ATOMIC_READ(&packets);
    HW_ATOMIC_READ(&bytes);
    // Acquire loads of the halves keep the closing `seq` load after them;
    // a half from a newer update therefore shows up as a changed `seq`.
    for (;;) {
      const std::uint64_t before = seq.load(std::memory_order_acquire);
      const std::uint64_t pkts = packets.load(std::memory_order_acquire);
      const std::uint64_t byte_total = bytes.load(std::memory_order_acquire);
      if ((before & 1) == 0 && seq.load(std::memory_order_relaxed) == before) {
        return {pkts, byte_total};
      }
    }
  }

 private:
  void publish(std::uint64_t pkts, std::uint64_t byte_total) noexcept {
    HW_ATOMIC_WRITE(&seq);
    HW_ATOMIC_WRITE(&packets);
    HW_ATOMIC_WRITE(&bytes);
    // Release stores of the halves publish the odd `seq` before them.
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);
    packets.store(pkts, std::memory_order_release);
    bytes.store(byte_total, std::memory_order_release);
    seq.store(s + 2, std::memory_order_release);
  }
};

/// View over the stats region (created by the switch, plugged into every
/// VM at attach time).
class SharedStats {
 public:
  SharedStats() = default;

  [[nodiscard]] static std::size_t bytes_required() noexcept;
  [[nodiscard]] static Result<SharedStats> create_in(shm::ShmRegion& region);
  [[nodiscard]] static Result<SharedStats> attach(shm::ShmRegion& region);

  [[nodiscard]] bool valid() const noexcept { return layout_ != nullptr; }

  /// TX-side PMD accounting for one bypassed burst: the frames *entered*
  /// the switch-visible world at `from` and *left* toward `to`, consuming
  /// rule `slot`.
  void account_bypass(PortId from, PortId to, std::uint32_t slot,
                      std::uint64_t pkt_count,
                      std::uint64_t byte_count) noexcept {
    layout_->port_rx[from % kStatsMaxPorts].add(pkt_count, byte_count);
    layout_->port_tx[to % kStatsMaxPorts].add(pkt_count, byte_count);
    if (slot < kStatsMaxRules) {
      layout_->rules[slot].add(pkt_count, byte_count);
    }
  }

  [[nodiscard]] openflow::PortStats read_port(PortId port) const noexcept {
    const auto& rx = layout_->port_rx[port % kStatsMaxPorts];
    const auto& tx = layout_->port_tx[port % kStatsMaxPorts];
    openflow::PortStats stats;
    stats.port = port;
    stats.rx_packets = rx.pkts();
    stats.rx_bytes = rx.byte_total();
    stats.tx_packets = tx.pkts();
    stats.tx_bytes = tx.byte_total();
    return stats;
  }

  /// (packets, bytes) accumulated for a rule slot.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> read_rule(
      std::uint32_t slot) const noexcept {
    if (slot >= kStatsMaxRules) return {0, 0};
    return layout_->rules[slot].read();
  }

  void clear_rule(std::uint32_t slot) noexcept {
    if (slot < kStatsMaxRules) layout_->rules[slot].clear();
  }
  void clear_port(PortId port) noexcept {
    layout_->port_rx[port % kStatsMaxPorts].clear();
    layout_->port_tx[port % kStatsMaxPorts].clear();
  }

  /// Conventional name of the host-wide stats region.
  [[nodiscard]] static const char* region_name() noexcept {
    return "highway.stats";
  }

 private:
  struct Layout {
    /// Init-publish flag (release store after construction, acquire load
    /// on attach, both via std::atomic_ref) — same protocol as
    /// ChannelHeader::magic, and like there it deliberately has no
    /// initializer: a peer may spin on this word while the creator's
    /// placement-new runs, so the constructor must not touch it. The
    /// region arrives zero-filled from the shm manager.
    std::uint32_t magic;  // NOLINT: see above — ctor must not touch it
    PktByteCounter port_rx[kStatsMaxPorts];
    PktByteCounter port_tx[kStatsMaxPorts];
    RuleCounter rules[kStatsMaxRules];
  };
  Layout* layout_ = nullptr;
};

}  // namespace hw::pmd
