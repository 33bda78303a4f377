#include "nic/traffic.h"

#include "pkt/packet.h"

namespace hw::nic {

TrafficSource::TrafficSource(std::string name, mbuf::Mempool& pool,
                             const pkt::TrafficProfile& profile,
                             exec::Runtime& runtime)
    : name_(std::move(name)),
      pool_(&pool),
      runtime_(&runtime),
      frame_len_(profile.frame_len),
      gen_(profile) {}

std::size_t TrafficSource::produce(std::span<mbuf::Mbuf*> out) noexcept {
  // Epoch start, not now_ns(): ts_ns is read by the sink's context, and
  // per-context intra-epoch offsets are not mutually ordered.
  const TimeNs now = runtime_->epoch_start_ns();
  if (!gen_.advance(now)) return 0;  // ON-OFF gate closed / population empty
  // One burst allocation; a short one is one starved call, as in
  // vm::GenSinkApp::poll.
  const std::size_t n = pool_->alloc_bulk(out);
  if (n < out.size()) ++alloc_failures_;
  for (std::size_t i = 0; i < n; ++i) {
    gen_.synthesize(*out[i], gen_.pick_flow());
    out[i]->seq = next_seq_++;
    out[i]->ts_ns = now;
  }
  generated_ += n;
  return n;
}

TrafficSink::TrafficSink(std::string name, mbuf::Mempool& pool,
                         exec::Runtime& runtime)
    : name_(std::move(name)), pool_(&pool), runtime_(&runtime) {}

void TrafficSink::consume(std::span<mbuf::Mbuf* const> pkts) noexcept {
  // Epoch start for the same reason as the producer stamp: ts_ns crossed
  // a context boundary (tools/check_invariants.py flagged this one).
  const TimeNs now = runtime_->epoch_start_ns();
  for (mbuf::Mbuf* buf : pkts) {
    ++received_;
    bytes_ += buf->data_len;
    // Only generated frames carry a stamp. Generators number frames from
    // 1; a packet-out leaves Mbuf::reset() with seq 0 and ts_ns 0.
    if (buf->seq != 0) {
      if (buf->ts_ns <= now) latency_.record(now - buf->ts_ns);
      const std::uint32_t hash = pkt::flow_hash_of(*buf);
      if (seq_track_.record(hash, buf->seq)) ++reorders_;
    }
  }
  pool_->free_bulk(pkts);
}

}  // namespace hw::nic
