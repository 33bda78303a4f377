#include "pkt/endpoint.h"

#include "pkt/packet.h"

namespace hw::pkt {

Endpoint::Endpoint(const TrafficProfile& profile, mbuf::Mempool& pool,
                   const exec::Runtime& runtime, bool generate)
    : pool_(&pool), runtime_(&runtime), generate_(generate), gen_(profile) {}

std::size_t Endpoint::generate(std::span<mbuf::Mbuf*> out) noexcept {
  if (!generate_ || out.empty()) return 0;
  // Cross-context stamp: the sink compares ts_ns against its own
  // epoch_start_ns(), so it must come from the same shared clock; now_ns()
  // would add this context's intra-epoch offset. The workload engine
  // advances on the same clock (ON-OFF phases and Poisson arrivals are
  // virtual-time processes).
  const TimeNs now = runtime_->epoch_start_ns();
  if (!gen_.advance(now)) return 0;  // gate closed / population empty
  const std::size_t n = pool_->alloc_bulk(out);
  if (n < out.size()) ++counters_.alloc_failures;  // one starved call
  for (std::size_t i = 0; i < n; ++i) {
    gen_.synthesize(*out[i], gen_.pick_flow());
    out[i]->seq = next_seq_++;
    out[i]->ts_ns = now;
  }
  return n;
}

void Endpoint::sent(std::span<mbuf::Mbuf* const> burst,
                    std::size_t accepted) noexcept {
  counters_.generated += accepted;
  pool_->free_bulk(burst.subspan(accepted));
}

void Endpoint::sink(std::span<mbuf::Mbuf* const> frames) noexcept {
  // Epoch start for the same reason as the generator's stamp: ts_ns
  // crossed a context boundary (tools/check_invariants.py enforces this).
  const TimeNs now = runtime_->epoch_start_ns();
  for (mbuf::Mbuf* buf : frames) {
    counters_.delivered_bytes += buf->data_len;
    // Only generated frames carry a stamp. Generators number frames from
    // 1; a packet-out leaves Mbuf::reset() with seq 0 and ts_ns 0. ts_ns 0
    // is a real stamp: the first epoch's frames carry it.
    if (buf->seq == 0) continue;
    if (buf->ts_ns <= now) latency_.record(now - buf->ts_ns);
    // Sequence numbers are globally monotonic at the generator, so they
    // are monotonic within each flow too; across flows RSS shards may
    // legally interleave, which one global "last seq" would miscount.
    if (rx_track_.record(flow_hash_of(*buf), buf->seq)) ++counters_.reorders;
  }
  counters_.delivered += frames.size();
  pool_->free_bulk(frames);
}

}  // namespace hw::pkt
