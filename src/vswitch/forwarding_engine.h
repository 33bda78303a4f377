#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "classifier/dp_classifier.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "mbuf/mempool.h"
#include "ring/spsc_ring.h"
#include "vswitch/rss.h"
#include "vswitch/switch_port.h"

/// \file forwarding_engine.h
/// One OVS-DPDK PMD thread: polls its assigned ports in round-robin
/// bursts, classifies each received burst through the three-tier datapath
/// classifier (exact-match cache → signature-accelerated megaflow
/// tuple-space search → wildcard table slow path) — as one batched
/// lookup per burst, like the dpcls batch loop — executes actions, and
/// flushes per-destination bursts. Every per-hop cost of the "traditional
/// approach" lives here — which is exactly the work the bypass channel
/// removes.

namespace hw::vswitch {

struct EngineCounters {
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t misses = 0;        ///< no matching rule → dropped
  std::uint64_t action_drops = 0;  ///< explicit DROP action
  std::uint64_t tx_ring_full = 0;  ///< destination could not accept
  std::uint64_t controller_punts = 0;
  // RSS scale-out telemetry (engine-local; see docs/SCALEOUT.md).
  std::uint64_t rss_distributed = 0;  ///< frames this engine hashed + steered
  std::uint64_t rss_queue_drops = 0;  ///< steered frames a full rx queue dropped
};

class ForwardingEngine final : public exec::Context {
 public:
  ForwardingEngine(std::string name, flowtable::FlowTable& table,
                   mbuf::Mempool& pool, const exec::CostModel& cost);

  /// Assigns a port's rx queue to this engine (OVS rxq affinity).
  void assign_port(SwitchPort* port);

  /// Makes this engine member `engine_id` of an RSS-sharded pool; a null
  /// sharder means sharding is off (the id still tags reports/stats).
  void configure_rss(RssSharder* sharder, std::uint32_t engine_id);

  /// Assigns a port this engine polls as RSS *distributor*: it owns the
  /// physical rx ring and steers each frame to its bucket owner through
  /// `queues` (indexed by engine id; this engine's own slot is null — its
  /// share is classified in place, the NIC-RSS "local queue" case).
  void assign_rss_port(SwitchPort* port,
                       std::vector<ring::SpscRing<mbuf::Mbuf*>*> queues);

  /// Attaches the per-(port, engine) rx queue another engine's
  /// distributor fills with this engine's share of `port`'s traffic.
  void attach_rx_queue(SwitchPort* port, ring::SpscRing<mbuf::Mbuf*>* queue);

  [[nodiscard]] std::uint32_t engine_id() const noexcept {
    return engine_id_;
  }

  /// This engine's shard of `id`'s port counters. Datapath stats writes
  /// go to per-engine shards (two engines may rx/tx the same port once
  /// the datapath is RSS-sharded); OfSwitch::port_stats sums the shards
  /// with the port's own control-plane counters. Null when this engine
  /// never touched the port.
  [[nodiscard]] const openflow::PortStats* port_accum(
      PortId id) const noexcept {
    return id < port_acc_.size() ? &port_acc_[id] : nullptr;
  }

  /// Enables span recording for this PMD (burst + classify spans here,
  /// tier-pass/drain spans in the classifier) on display row `track`.
  void configure_trace(telemetry::Tracer* tracer, const exec::Runtime* clock,
                       std::uint16_t track) noexcept {
    tracer_ = tracer;
    trace_clock_ = tracer != nullptr ? clock : nullptr;
    trace_track_ = track;
    classifier_.configure_trace(tracer, clock, track);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  std::uint32_t poll(exec::CycleMeter& meter) override;

  /// Forwarding counters; the per-tier ones are tier_counters().
  [[nodiscard]] const EngineCounters& counters() const noexcept {
    return counters_;
  }

  /// This engine's private datapath classifier, all three tiers on (one
  /// per PMD, like one EMC + dpcls pair per OVS PMD thread).
  [[nodiscard]] const classifier::DpClassifier& classifier() const noexcept {
    return classifier_;
  }
  [[nodiscard]] classifier::TierCounters tier_counters() const noexcept {
    return classifier_.counters();
  }
  [[nodiscard]] const flowtable::ExactMatchCache& emc() const noexcept {
    return classifier_.emc();
  }
  /// Ports whose physical rx this engine polls (direct + RSS-home).
  [[nodiscard]] std::size_t port_count() const noexcept {
    return ports_.size() + rss_ports_.size();
  }

 private:
  /// An RSS-home port: this engine polls its rx ring and distributes.
  struct RssHomePort {
    SwitchPort* port;
    /// Per-destination-engine queues, indexed by engine id (own slot
    /// null). Each queue has exactly one producer (this distributor) and
    /// one consumer (the owning engine) — the SPSC contract.
    std::vector<ring::SpscRing<mbuf::Mbuf*>*> queues;
  };
  /// A queue some other engine's distributor fills for us.
  struct RssRxQueue {
    SwitchPort* port;
    ring::SpscRing<mbuf::Mbuf*>* queue;
  };

  /// Processes one received burst from `in_port`: parses every frame
  /// into its key slot, classifies the whole burst in one batched
  /// lookup, then executes actions per packet in arrival order.
  void process_burst(SwitchPort& in_port, std::span<mbuf::Mbuf*> pkts,
                     exec::CycleMeter& meter);
  /// RSS distributor: hashes each frame of a home-port burst to its
  /// bucket owner — own share classified in place, the rest enqueued.
  void distribute(RssHomePort& home, std::span<mbuf::Mbuf*> pkts,
                  exec::CycleMeter& meter);
  void flush_to(PortId out_port, std::span<mbuf::Mbuf* const> pkts,
                exec::CycleMeter& meter);
  [[nodiscard]] SwitchPort* port_by_id(PortId id) noexcept;
  /// This engine's stats shard for `port` (grown on demand).
  [[nodiscard]] openflow::PortStats& acc(const SwitchPort& port);

  std::string name_;
  mbuf::Mempool* pool_;
  const exec::CostModel* cost_;
  telemetry::Tracer* tracer_ = nullptr;
  const exec::Runtime* trace_clock_ = nullptr;
  std::uint16_t trace_track_ = 0;

  std::vector<SwitchPort*> ports_;
  // Dense id→port map for O(1) output action resolution.
  std::vector<SwitchPort*> by_id_;
  classifier::DpClassifier classifier_;
  EngineCounters counters_;

  // RSS scale-out state (empty when sharding is off).
  std::uint32_t engine_id_ = 0;
  RssSharder* sharder_ = nullptr;
  std::vector<RssHomePort> rss_ports_;
  std::vector<RssRxQueue> rss_queues_;
  /// Distribution staging, one slot per engine — reused every burst.
  std::vector<std::vector<mbuf::Mbuf*>> rss_stage_;
  /// Per-engine port-stats shards, dense by port id.
  std::vector<openflow::PortStats> port_acc_;

  std::vector<mbuf::Mbuf*> rx_buf_;
  std::vector<mbuf::Mbuf*> tx_buf_;
  // Per-burst classification scratch (keys/hashes/outcomes), sized to
  // the burst once — no per-burst allocation.
  std::vector<pkt::FlowKey> key_buf_;
  std::vector<std::uint32_t> hash_buf_;
  std::vector<classifier::LookupOutcome> outcome_buf_;

 public:
  /// Registers a port reachable as an output destination (all switch
  /// ports, not only the ones polled by this engine).
  void register_output(SwitchPort* port);
};

}  // namespace hw::vswitch
