#include "vm/apps.h"

#include <cstring>

#include "pkt/int_stamp.h"
#include "pkt/packet.h"

namespace hw::vm {

// ----------------------------------------------------------- ForwarderApp

ForwarderApp::ForwarderApp(std::string name, pmd::GuestPmd& left,
                           pmd::GuestPmd& right, mbuf::Mempool& pool,
                           const exec::CostModel& cost,
                           std::uint32_t extra_cycles, std::uint32_t burst)
    : name_(std::move(name)),
      left_(&left),
      right_(&right),
      pool_(&pool),
      cost_(&cost),
      extra_cycles_(extra_cycles),
      burst_(burst) {
  buf_.resize(burst_);
}

std::uint32_t ForwarderApp::pump(pmd::GuestPmd& from, pmd::GuestPmd& to,
                                 exec::CycleMeter& meter) {
  const std::uint16_t n =
      from.rx_burst(std::span(buf_.data(), burst_), meter);
  if (n == 0) return 0;
  // Per-packet VNF work: touch the frame (swap nothing, read headers).
  meter.charge(static_cast<Cycles>(n) *
               (cost_->vm_app_per_pkt + extra_cycles_));
  const std::uint16_t sent =
      to.tx_burst(std::span<mbuf::Mbuf* const>(buf_.data(), n), meter);
  if (sent < n) {
    pool_->free_bulk(
        std::span<mbuf::Mbuf* const>(buf_.data() + sent, n - sent));
    counters_.tx_drops += n - sent;
  }
  counters_.forwarded += sent;
  return n;
}

std::uint32_t ForwarderApp::poll(exec::CycleMeter& meter) {
  std::uint32_t work = 0;
  work += pump(*left_, *right_, meter);   // forward direction
  work += pump(*right_, *left_, meter);   // reverse direction
  if (work == 0) meter.charge(cost_->idle_poll);
  return work;
}

// ------------------------------------------------------------- GenSinkApp

GenSinkApp::GenSinkApp(std::string name, pmd::GuestPmd& port,
                       mbuf::Mempool& pool,
                       const pkt::TrafficProfile& profile,
                       exec::Runtime& runtime, const exec::CostModel& cost,
                       bool generate, std::uint32_t burst,
                       std::uint64_t rate_pps)
    : name_(std::move(name)),
      port_(&port),
      pool_(&pool),
      runtime_(&runtime),
      cost_(&cost),
      generate_(generate),
      burst_(burst),
      rate_pps_(rate_pps),
      gen_(profile) {
  buf_.resize(burst_);
}

std::uint32_t GenSinkApp::poll(exec::CycleMeter& meter) {
  std::uint32_t work = 0;

  // Sink whatever arrived (reverse-direction traffic, or packet-out).
  const std::uint16_t n =
      port_->rx_burst(std::span(buf_.data(), burst_), meter);
  if (n > 0) {
    // ts_ns is stamped by the *generator's* context; now_ns() here would
    // add the sink's own intra-epoch offset, and the two offsets are not
    // mutually ordered. epoch_start_ns() is the cross-context-comparable
    // clock (tools/check_invariants.py enforces this pattern repo-wide).
    const TimeNs now = runtime_->epoch_start_ns();
    for (std::uint16_t i = 0; i < n; ++i) {
      mbuf::Mbuf* pkt = buf_[i];
      // Only generated frames carry a stamp. Generators number frames
      // from 1; a packet-out leaves Mbuf::reset() with seq 0 and ts_ns 0.
      // ts_ns 0 is a real stamp: the first epoch's frames carry it.
      if (pkt->seq != 0) {
        if (pkt->ts_ns <= now) latency_.record(now - pkt->ts_ns);
        // Per-flow order check: sequence numbers are globally monotonic at
        // the generator, so they are monotonic within each flow too — but
        // across flows RSS shards may legally interleave, which a single
        // global "last seq" would miscount as reorder.
        if (rx_track_.record(pkt::flow_hash_of(*pkt), pkt->seq)) {
          ++counters_.reorders;
        }
      }
      counters_.delivered_bytes += pkt->data_len;
      if (collect_int_) {
        const std::uint16_t hops = pkt::int_hop_count(*pkt);
        if (hops > int_hops_.size()) int_hops_.resize(hops);
        pkt::IntHopRecord rec;
        for (std::uint16_t h = 0; h < hops; ++h) {
          if (!pkt::int_read_hop(*pkt, h, rec)) break;
          IntHopStats& stats = int_hops_[h];
          stats.hop_id = rec.hop_id;
          ++stats.samples;
          stats.queue_depth_sum += rec.queue_depth;
          if (rec.egress_ns >= rec.ingress_ns && rec.egress_ns != 0) {
            stats.transit.record(rec.egress_ns - rec.ingress_ns);
          }
        }
      }
      meter.charge(cost_->mbuf_free);
    }
    pool_->free_bulk(std::span<mbuf::Mbuf* const>(buf_.data(), n));
    counters_.delivered += n;
    work += n;
  }

  // Generate a fresh burst (token-paced when a rate is configured).
  std::size_t want = burst_;
  if (generate_ && rate_pps_ != 0) {
    const TimeNs now = runtime_->now_ns();
    if (last_refill_ns_ == 0) last_refill_ns_ = now;
    tokens_ += static_cast<double>(now - last_refill_ns_) *
               static_cast<double>(rate_pps_) / 1e9;
    last_refill_ns_ = now;
    tokens_ = std::min(tokens_, 4.0 * burst_);
    want = std::min<std::size_t>(burst_, static_cast<std::size_t>(tokens_));
  }
  if (generate_ && want > 0) {
    // Cross-context stamp: the sink compares this against its own
    // epoch_start_ns(), so it must come from the same shared clock. The
    // workload engine advances on the same clock (ON-OFF phases and
    // Poisson arrivals are virtual-time processes).
    const TimeNs now = runtime_->epoch_start_ns();
    if (!gen_.advance(now)) want = 0;  // gate closed this poll
  }
  if (generate_ && want > 0) {
    const TimeNs now = runtime_->epoch_start_ns();
    const std::size_t got =
        pool_->alloc_bulk(std::span(buf_.data(), want));
    if (got < want) ++counters_.alloc_failures;  // one starved poll
    if (got > 0) {
      for (std::size_t i = 0; i < got; ++i) {
        gen_.synthesize(*buf_[i], gen_.pick_flow());
        buf_[i]->seq = next_seq_++;
        buf_[i]->ts_ns = now;
        meter.charge(cost_->mbuf_alloc);
      }
      const std::uint16_t sent = port_->tx_burst(
          std::span<mbuf::Mbuf* const>(buf_.data(), got), meter);
      if (sent < got) {
        // Backpressure at the source: the chain is saturated. Not a loss.
        pool_->free_bulk(
            std::span<mbuf::Mbuf* const>(buf_.data() + sent, got - sent));
      }
      if (rate_pps_ != 0) tokens_ -= static_cast<double>(sent);
      counters_.generated += sent;
      work += sent;
    }
  }

  if (work == 0) meter.charge(cost_->idle_poll);
  return work;
}

}  // namespace hw::vm
