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
  std::size_t n = 0;
  for (; n < out.size(); ++n) {
    mbuf::Mbuf* buf = pool_->alloc();
    if (buf == nullptr) {
      ++alloc_failures_;
      break;
    }
    gen_.synthesize(*buf, gen_.pick_flow());
    buf->seq = next_seq_++;
    buf->ts_ns = now;
    out[n] = buf;
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
    pool_->free(buf);
  }
}

}  // namespace hw::nic
