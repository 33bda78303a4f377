#include "vswitch/forwarding_engine.h"

#include <atomic>

#include "exec/runtime.h"
#include "pkt/headers.h"
#include "pkt/packet.h"

namespace hw::vswitch {

using flowtable::FlowEntry;

ForwardingEngine::ForwardingEngine(std::string name,
                                   flowtable::FlowTable& table,
                                   mbuf::Mempool& pool,
                                   const exec::CostModel& cost)
    : name_(std::move(name)),
      pool_(&pool),
      cost_(&cost),
      classifier_(table, cost) {
  rx_buf_.resize(kBurstSize);
  tx_buf_.reserve(kBurstSize);
  key_buf_.resize(kBurstSize);
  hash_buf_.resize(kBurstSize);
  outcome_buf_.resize(kBurstSize);
}

void ForwardingEngine::assign_port(SwitchPort* port) {
  ports_.push_back(port);
  register_output(port);
}

void ForwardingEngine::configure_rss(RssSharder* sharder,
                                     std::uint32_t engine_id) {
  sharder_ = sharder;
  engine_id_ = engine_id;
  if (sharder_ != nullptr) {
    rss_stage_.resize(sharder_->table().engine_count());
    for (auto& stage : rss_stage_) stage.reserve(kBurstSize);
  }
}

void ForwardingEngine::assign_rss_port(
    SwitchPort* port, std::vector<ring::SpscRing<mbuf::Mbuf*>*> queues) {
  rss_ports_.push_back(RssHomePort{port, std::move(queues)});
  register_output(port);
}

void ForwardingEngine::attach_rx_queue(SwitchPort* port,
                                       ring::SpscRing<mbuf::Mbuf*>* queue) {
  rss_queues_.push_back(RssRxQueue{port, queue});
  register_output(port);
}

openflow::PortStats& ForwardingEngine::acc(const SwitchPort& port) {
  if (port_acc_.size() <= port.id()) port_acc_.resize(port.id() + 1);
  return port_acc_[port.id()];
}

void ForwardingEngine::register_output(SwitchPort* port) {
  if (by_id_.size() <= port->id()) by_id_.resize(port->id() + 1, nullptr);
  by_id_[port->id()] = port;
}

SwitchPort* ForwardingEngine::port_by_id(PortId id) noexcept {
  return id < by_id_.size() ? by_id_[id] : nullptr;
}

std::uint32_t ForwardingEngine::poll(exec::CycleMeter& meter) {
  std::uint32_t total = 0;
  for (SwitchPort* port : ports_) {
    if (!port->enabled()) continue;
    meter.charge(cost_->ring_deq_base);
    const std::size_t n = port->rx_burst(std::span(rx_buf_.data(), kBurstSize));
    if (n == 0) continue;
    meter.charge(static_cast<Cycles>(n) * cost_->ring_deq_per_pkt);
    acc(*port).rx_packets += n;
    process_burst(*port, std::span(rx_buf_.data(), n), meter);
    total += static_cast<std::uint32_t>(n);
  }
  // RSS-home ports: this engine owns the physical rx ring; every frame
  // is hashed to its bucket owner (possibly us) before classification.
  for (RssHomePort& home : rss_ports_) {
    if (!home.port->enabled()) continue;
    meter.charge(cost_->ring_deq_base);
    const std::size_t n =
        home.port->rx_burst(std::span(rx_buf_.data(), kBurstSize));
    if (n == 0) continue;
    meter.charge(static_cast<Cycles>(n) * cost_->ring_deq_per_pkt);
    acc(*home.port).rx_packets += n;
    distribute(home, std::span(rx_buf_.data(), n), meter);
    total += static_cast<std::uint32_t>(n);
  }
  // Queues other engines' distributors filled with our share.
  for (RssRxQueue& q : rss_queues_) {
    if (!q.port->enabled()) continue;
    meter.charge(cost_->ring_deq_base);
    const std::size_t n =
        q.queue->dequeue_burst(std::span(rx_buf_.data(), kBurstSize));
    if (n == 0) continue;
    meter.charge(static_cast<Cycles>(n) * cost_->ring_deq_per_pkt);
    process_burst(*q.port, std::span(rx_buf_.data(), n), meter);
    total += static_cast<std::uint32_t>(n);
  }
  if (total == 0) meter.charge(cost_->idle_poll);
  return total;
}

void ForwardingEngine::distribute(RssHomePort& home,
                                  std::span<mbuf::Mbuf*> pkts,
                                  exec::CycleMeter& meter) {
  RssTable& table = sharder_->table();
  for (auto& stage : rss_stage_) stage.clear();
  for (mbuf::Mbuf* buf : pkts) {
    // The software stand-in for NIC RSS: one flat charge covers the
    // 5-tuple hash and the indirection-table load (real parsing still
    // happens at the owner, exactly like hardware RSS).
    meter.charge(cost_->rss_hash_per_pkt);
    buf->in_port = home.port->id();
    const std::uint32_t bucket =
        table.bucket_of(RssTable::hash(pkt::extract_flow_key(*buf)));
    table.record(bucket);
    // One atomic load yields (owner, generation) together — a frame can
    // never be steered by a stale owner paired with a newer generation.
    rss_stage_[table.slot(bucket).owner].push_back(buf);
  }
  counters_.rss_distributed += pkts.size();

  for (std::uint32_t e = 0; e < rss_stage_.size(); ++e) {
    auto& stage = rss_stage_[e];
    if (stage.empty()) continue;
    if (e == engine_id_) {
      // Our own share: classify in place (the NIC-RSS local queue).
      process_burst(*home.port, std::span(stage.data(), stage.size()),
                    meter);
      continue;
    }
    meter.charge(cost_->ring_enq_base);
    const std::size_t accepted = home.queues[e]->enqueue_burst(
        std::span<mbuf::Mbuf* const>(stage.data(), stage.size()));
    meter.charge(static_cast<Cycles>(accepted) * cost_->ring_enq_per_pkt);
    if (accepted < stage.size()) {
      // Full per-engine queue: the rx-side drop NIC RSS would take.
      const std::size_t dropped = stage.size() - accepted;
      counters_.rss_queue_drops += dropped;
      acc(*home.port).rx_dropped += dropped;
      pool_->free_bulk(std::span<mbuf::Mbuf* const>(stage).subspan(accepted));
    }
  }

  if (sharder_->note_distributed(static_cast<std::uint32_t>(pkts.size()))) {
    meter.charge(cost_->rss_rebalance_check);
    sharder_->rebalance();
  }
}

void ForwardingEngine::process_burst(SwitchPort& in_port,
                                     std::span<mbuf::Mbuf*> pkts,
                                     exec::CycleMeter& meter) {
  counters_.rx_packets += pkts.size();
  const TimeNs trace_base =
      trace_clock_ != nullptr ? trace_clock_->epoch_start_ns() : 0;
  telemetry::ScopedSpan burst_span(tracer_, "burst", "engine", trace_track_,
                                   trace_base, &meter, cost_);
  burst_span.set_args(pkts.size(), in_port.id());

  // Parse the whole burst up front, then classify it as one batch (the
  // dpcls batch loop). Each key is built in its batch slot and hashed
  // there: a key returned by value would be copied into the slot by one
  // wide load of bytes still in flight from narrow stores, which
  // store-to-load forwarding cannot serve.
  std::uint64_t rx_bytes = 0;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    mbuf::Mbuf* buf = pkts[i];
    buf->in_port = in_port.id();
    rx_bytes += buf->data_len;
    meter.charge(cost_->parse_per_pkt);
    pkt::extract_flow_key(*buf, key_buf_[i]);
    hash_buf_[i] = pkt::flow_key_hash(key_buf_[i]);
    // What flow_hash_of() would cache for this in_port, so a receiver
    // need not parse the frame again.
    buf->flow_hash = hash_buf_[i];
  }
  acc(in_port).rx_bytes += rx_bytes;
  const std::size_t n = pkts.size();
  {
    telemetry::ScopedSpan classify_span(tracer_, "classify", "classify",
                                        trace_track_, trace_base, &meter,
                                        cost_);
    classify_span.set_args(n);
    classifier_.lookup_batch(std::span(key_buf_.data(), n),
                             std::span(hash_buf_.data(), n),
                             std::span(outcome_buf_.data(), n), meter);
  }

  // Sequential batching: consecutive packets to the same output are
  // flushed as one burst (the common case — an entire burst follows one
  // steering rule).
  PortId pending_out = kPortNone;
  tx_buf_.clear();

  auto flush_pending = [&] {
    if (!tx_buf_.empty()) {
      flush_to(pending_out, tx_buf_, meter);
      tx_buf_.clear();
    }
    pending_out = kPortNone;
  };

  // Rule counters, added once per run of consecutive packets on one rule
  // (a whole burst, when one steering rule carries it). Engines on
  // different threads can hit the same wildcard rule (two sharded
  // directions of one flow pair, or two ports homed on different
  // engines): relaxed atomic adds keep flow_stats exact without ordering
  // cost. A run's bytes are summed before its frames' actions run, while
  // the engine still owns every mbuf.
  FlowEntry* run_rule = nullptr;
  std::uint64_t run_packets = 0;
  std::uint64_t run_bytes = 0;
  auto flush_run = [&] {
    if (run_rule == nullptr) return;
    std::atomic_ref(run_rule->packet_count)
        .fetch_add(run_packets, std::memory_order_relaxed);
    std::atomic_ref(run_rule->byte_count)
        .fetch_add(run_bytes, std::memory_order_relaxed);
    run_packets = 0;
    run_bytes = 0;
  };

  for (std::size_t i = 0; i < n; ++i) {
    mbuf::Mbuf* buf = pkts[i];
    FlowEntry* entry = outcome_buf_[i].entry;
    if (entry == nullptr) {
      ++counters_.misses;
      ++acc(in_port).rx_dropped;
      pool_->free(buf);
      continue;
    }
    if (entry != run_rule) {
      flush_run();
      run_rule = entry;
    }
    ++run_packets;
    run_bytes += buf->data_len;

    bool consumed = false;
    for (const openflow::Action& action : entry->actions) {
      meter.charge(cost_->action_per_pkt);
      switch (action.type) {
        case openflow::ActionType::kOutput: {
          if (action.port == kPortController) {
            // Punt accounting only; packet-in payload delivery is out of
            // scope (the paper's datapath never punts on p-2-p links).
            ++counters_.controller_punts;
            pool_->free(buf);
            consumed = true;
            break;
          }
          if (action.port != pending_out) {
            flush_pending();
            pending_out = action.port;
          }
          tx_buf_.push_back(buf);
          consumed = true;
          break;
        }
        case openflow::ActionType::kDrop: {
          ++counters_.action_drops;
          pool_->free(buf);
          consumed = true;
          break;
        }
        case openflow::ActionType::kSetTtl: {
          if (auto view = pkt::parse(*buf); view && view->ip != nullptr) {
            // Incremental RFC 1624 update: the emitted packet must still
            // pass pkt::checksum_ok.
            const_cast<pkt::Ipv4Header*>(view->ip)->update_ttl(action.ttl);
          }
          continue;  // non-terminal action
        }
      }
      if (consumed) break;
    }
    if (!consumed) {
      // Action list without a terminal action: OpenFlow drops.
      ++counters_.action_drops;
      pool_->free(buf);
    }
  }
  flush_run();
  flush_pending();
}

void ForwardingEngine::flush_to(PortId out_port,
                                std::span<mbuf::Mbuf* const> pkts,
                                exec::CycleMeter& meter) {
  SwitchPort* dst = port_by_id(out_port);
  meter.charge(cost_->ring_enq_base);
  std::size_t accepted = 0;
  if (dst != nullptr && dst->enabled()) {
    // Sum the bytes while the engine still owns every mbuf: once
    // tx_burst publishes the burst, the consumer may free an accepted
    // mbuf and the pool hand it out again. The rejected tail stays ours.
    std::uint64_t bytes = 0;
    for (const mbuf::Mbuf* buf : pkts) bytes += buf->data_len;
    accepted = dst->tx_burst(pkts);
    for (std::size_t i = accepted; i < pkts.size(); ++i) {
      bytes -= pkts[i]->data_len;
    }
    meter.charge(static_cast<Cycles>(accepted) * cost_->ring_enq_per_pkt);
    openflow::PortStats& shard = acc(*dst);
    shard.tx_packets += accepted;
    shard.tx_bytes += bytes;
  }
  counters_.tx_packets += accepted;
  if (accepted < pkts.size()) {
    const std::size_t dropped = pkts.size() - accepted;
    counters_.tx_ring_full += dropped;
    if (dst != nullptr) acc(*dst).tx_dropped += dropped;
    pool_->free_bulk(pkts.subspan(accepted));
  }
}

}  // namespace hw::vswitch
