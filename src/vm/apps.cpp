#include "vm/apps.h"

#include "pkt/int_stamp.h"

namespace hw::vm {

// ----------------------------------------------------------- ForwarderApp

ForwarderApp::ForwarderApp(std::string name, pmd::GuestPmd& left,
                           pmd::GuestPmd& right, mbuf::Mempool& pool,
                           const exec::CostModel& cost)
    : name_(std::move(name)),
      left_(&left),
      right_(&right),
      pool_(&pool),
      cost_(&cost) {
  buf_.resize(kBurstSize);
}

std::uint32_t ForwarderApp::pump(pmd::GuestPmd& from, pmd::GuestPmd& to,
                                 exec::CycleMeter& meter) {
  const std::uint16_t n =
      from.rx_burst(std::span(buf_.data(), kBurstSize), meter);
  if (n == 0) return 0;
  // Per-packet VNF work: touch the frame (swap nothing, read headers).
  meter.charge(static_cast<Cycles>(n) * cost_->vm_app_per_pkt);
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
      runtime_(&runtime),
      cost_(&cost),
      burst_(burst),
      rate_pps_(rate_pps),
      endpoint_(profile, pool, runtime, generate) {
  buf_.resize(burst_);
}

void GenSinkApp::record_int_hops(std::span<mbuf::Mbuf* const> frames) {
  for (const mbuf::Mbuf* frame : frames) {
    const std::uint16_t hops = pkt::int_hop_count(*frame);
    if (hops > int_hops_.size()) int_hops_.resize(hops);
    pkt::IntHopRecord rec;
    for (std::uint16_t h = 0; h < hops; ++h) {
      if (!pkt::int_read_hop(*frame, h, rec)) break;
      IntHopStats& stats = int_hops_[h];
      stats.hop_id = rec.hop_id;
      ++stats.samples;
      stats.queue_depth_sum += rec.queue_depth;
      if (rec.egress_ns >= rec.ingress_ns && rec.egress_ns != 0) {
        stats.transit.record(rec.egress_ns - rec.ingress_ns);
      }
    }
  }
}

std::uint32_t GenSinkApp::poll(exec::CycleMeter& meter) {
  std::uint32_t work = 0;

  // Sink whatever arrived (reverse-direction traffic, or packet-out).
  const std::uint16_t n =
      port_->rx_burst(std::span(buf_.data(), burst_), meter);
  if (n > 0) {
    const std::span<mbuf::Mbuf* const> frames(buf_.data(), n);
    if (collect_int_) record_int_hops(frames);
    meter.charge(static_cast<Cycles>(n) * cost_->mbuf_free);
    endpoint_.sink(frames);
    work += n;
  }

  // Generate a fresh burst (token-paced when a rate is configured).
  std::size_t want = burst_;
  if (endpoint_.generating() && rate_pps_ != 0) {
    const TimeNs now = runtime_->now_ns();
    if (last_refill_ns_ == 0) last_refill_ns_ = now;
    // now_ns() leaves out this context's unpaid debt, so a reading can be
    // a few ns earlier than the last one; refill only when time moved on,
    // or the unsigned difference wraps and fills the bucket to its cap.
    if (now > last_refill_ns_) {
      tokens_ += static_cast<double>(now - last_refill_ns_) *
                 static_cast<double>(rate_pps_) / 1e9;
      last_refill_ns_ = now;
    }
    tokens_ = std::min(tokens_, 4.0 * burst_);
    want = std::min<std::size_t>(burst_, static_cast<std::size_t>(tokens_));
  }
  const std::size_t got = endpoint_.generate(std::span(buf_.data(), want));
  if (got > 0) {
    meter.charge(static_cast<Cycles>(got) * cost_->mbuf_alloc);
    const std::span<mbuf::Mbuf* const> frames(buf_.data(), got);
    const std::uint16_t sent = port_->tx_burst(frames, meter);
    // Frames the port refused are backpressure at the source (the chain
    // is saturated), not a loss.
    endpoint_.sent(frames, sent);
    if (rate_pps_ != 0) tokens_ -= static_cast<double>(sent);
    work += sent;
  }

  if (work == 0) meter.charge(cost_->idle_poll);
  return work;
}

}  // namespace hw::vm
