#include "pkt/workload_gen.h"

#include <cstring>

#include "pkt/checksum.h"
#include "pkt/packet.h"

namespace hw::pkt {

namespace {

constexpr std::size_t kEthLen = sizeof(EthernetHeader);
constexpr std::size_t kIpLen = sizeof(Ipv4Header);

/// Arrivals admitted per poll are bounded so a long silent gap cannot
/// stall one poll with an unbounded catch-up burst.
constexpr std::uint32_t kMaxAdmitPerPoll = 256;

/// Elephant-lifetime expiry is swept lazily every N polls (a sweep is
/// O(active); per-packet deadline checks would be pure overhead).
constexpr std::uint32_t kSweepEveryPolls = 64;

/// Only every Nth pick is offered to the top-k sketch: an offer that
/// misses the tracked slots scans them twice, more than the pick itself.
/// Zipf and uniform picks are i.i.d. between population changes, so the
/// sample's top-k share estimates the stream's. The sketch draws no
/// random numbers, so the stride cannot move the offered stream.
constexpr std::uint64_t kTopKSampleStride = 16;

/// The Zipf sampler for the profile's population: word bounds for a fixed
/// one, none for a churning one or a distribution that never draws from
/// it.
ZipfSampler zipf_sampler_for(const TrafficProfile& profile) {
  const WorkloadConfig& cfg = profile.workload;
  if (cfg.distribution != FlowDistribution::kZipf ||
      cfg.churn == ChurnModel::kPoisson) {
    return ZipfSampler(cfg.zipf_s);
  }
  return ZipfSampler::fixed_population(cfg.zipf_s, profile.flow_count);
}

TimeNs arrival_gap_ns(double per_sec) noexcept {
  if (per_sec <= 0.0) return TimeNs{1} << 62;  // effectively never
  const double gap = 1e9 / per_sec;
  return gap < 1.0 ? TimeNs{1} : static_cast<TimeNs>(gap);
}

}  // namespace

WorkloadGen::WorkloadGen(const TrafficProfile& profile)
    : profile_(profile),
      cfg_(profile.workload),
      rng_(profile.seed ^ 0x5eedf00dULL),
      zipf_(zipf_sampler_for(profile)),
      arrivals_(arrival_gap_ns(cfg_.arrival_per_sec)),
      elephant_life_(cfg_.elephant_lifetime_ns == 0 ? 1
                                                    : cfg_.elephant_lifetime_ns),
      gate_(cfg_.on_mean_ns, cfg_.off_mean_ns),
      topk_(64),
      track_topk_(cfg_.distribution != FlowDistribution::kRoundRobin ||
                  cfg_.churn == ChurnModel::kPoisson) {
  build_prototypes();
  if (cfg_.churn == ChurnModel::kPoisson) {
    const std::uint32_t initial =
        profile_.flow_count < cfg_.max_active_flows ? profile_.flow_count
                                                    : cfg_.max_active_flows;
    active_.reserve(cfg_.max_active_flows);
    for (std::uint32_t i = 0; i < initial; ++i) spawn(0);
  } else {
    stats_.active_flows = profile_.flow_count == 0 ? 1 : profile_.flow_count;
    stats_.distinct_flows = stats_.active_flows;
  }
}

void WorkloadGen::build_prototypes() {
  const auto prototype_of = [](const mbuf::Mbuf& built) {
    Prototype proto;
    proto.frame.assign(built.data, built.data + built.data_len);
    Ipv4Header ip;
    std::memcpy(&ip, built.data + kEthLen, kIpLen);
    ip.set_src_addr(0);
    ip.set_dst_addr(0);
    ip.set_hdr_checksum(0);
    proto.ip_sum =
        checksum_partial({reinterpret_cast<const std::byte*>(&ip), kIpLen});
    return proto;
  };
  mbuf::Mbuf scratch;
  FrameSpec udp_spec;
  udp_spec.frame_len = profile_.frame_len;
  udp_spec.ip_proto = kIpProtoUdp;
  if (!build_frame(scratch, udp_spec)) {
    // Invalid frame_len: fall back to the 64 B default, matching the
    // legacy generator's "degenerate profile" escape hatch.
    (void)build_frame(scratch, FrameSpec{});
  }
  udp_ = prototype_of(scratch);

  FrameSpec tcp_spec;
  tcp_spec.frame_len = profile_.frame_len;
  tcp_spec.ip_proto = kIpProtoTcp;
  if (!build_frame(scratch, tcp_spec)) {
    tcp_spec = FrameSpec{};
    tcp_spec.ip_proto = kIpProtoTcp;
    (void)build_frame(scratch, tcp_spec);
  }
  tcp_ = prototype_of(scratch);
}

bool WorkloadGen::advance(TimeNs now) noexcept {
  switch (cfg_.churn) {
    case ChurnModel::kNone:
      return true;
    case ChurnModel::kOnOff:
      return gate_.is_on(now, rng_);
    case ChurnModel::kPoisson:
      admit(now);
      if (cfg_.elephant_lifetime_ns != 0 &&
          ++polls_since_sweep_ >= kSweepEveryPolls) {
        polls_since_sweep_ = 0;
        sweep_expired(now);
      }
      return !active_.empty();
  }
  return true;
}

void WorkloadGen::admit(TimeNs now) noexcept {
  if (next_arrival_ == 0) next_arrival_ = now + arrivals_.next_gap(rng_);
  std::uint32_t admitted = 0;
  while (next_arrival_ <= now && admitted < kMaxAdmitPerPoll) {
    if (active_.size() >= cfg_.max_active_flows) {
      // Population full: admission stalls; re-arm relative to now so a
      // departure reopens it without a catch-up burst.
      next_arrival_ = now + arrivals_.next_gap(rng_);
      return;
    }
    spawn(now);
    ++admitted;
    next_arrival_ += arrivals_.next_gap(rng_);
  }
}

void WorkloadGen::spawn(TimeNs now) noexcept {
  ActiveFlow flow;
  flow.id = next_fresh_id_++;
  if (rng_.chance(cfg_.mice_percent, 100)) {
    flow.packets_left = cfg_.mice_packets == 0 ? 1 : cfg_.mice_packets;
  } else if (cfg_.elephant_lifetime_ns != 0) {
    flow.deadline = now + elephant_life_.next_gap(rng_);
  }
  active_.push_back(flow);
  ++stats_.flow_arrivals;
  stats_.active_flows = active_.size();
  stats_.distinct_flows = next_fresh_id_;
}

void WorkloadGen::sweep_expired(TimeNs now) noexcept {
  for (std::size_t i = 0; i < active_.size();) {
    if (active_[i].packets_left == 0 && active_[i].deadline != 0 &&
        active_[i].deadline <= now) {
      depart(i);  // swap-pop: re-examine index i
    } else {
      ++i;
    }
  }
}

void WorkloadGen::depart(std::size_t idx) noexcept {
  active_[idx] = active_.back();
  active_.pop_back();
  ++stats_.flow_departures;
  stats_.active_flows = active_.size();
}

std::uint64_t WorkloadGen::pick_rank(std::uint64_t n) noexcept {
  switch (cfg_.distribution) {
    case FlowDistribution::kRoundRobin: {
      const std::uint64_t r = rr_next_ % n;
      rr_next_ = r + 1;
      return r;
    }
    case FlowDistribution::kUniform:
      return rng_.next_below(n);
    case FlowDistribution::kZipf:
      return zipf_.draw(rng_, n);
  }
  return 0;
}

std::uint64_t WorkloadGen::pick_flow() noexcept {
  std::uint64_t id = 0;
  if (cfg_.churn == ChurnModel::kPoisson) {
    const std::uint64_t n = active_.size();
    if (n == 0) {
      id = next_fresh_id_;  // defensive; advance() gates this path
    } else {
      const auto rank = static_cast<std::size_t>(pick_rank(n));
      ActiveFlow& flow = active_[rank];
      id = flow.id;
      if (flow.packets_left != 0 && --flow.packets_left == 0) depart(rank);
    }
  } else {
    const std::uint64_t n =
        profile_.flow_count == 0 ? 1 : profile_.flow_count;
    id = pick_rank(n);
  }
  if (track_topk_ && stats_.offered % kTopKSampleStride == 0) {
    topk_.offer(id);
  }
  ++stats_.offered;
  return id;
}

void WorkloadGen::synthesize(mbuf::Mbuf& buf, std::uint64_t flow_id) noexcept {
  const FrameSpec spec = profile_.flow_spec(flow_id);
  const Prototype& proto = spec.ip_proto == kIpProtoTcp ? tcp_ : udp_;
  std::memcpy(buf.data, proto.frame.data(), proto.frame.size());
  buf.data_len = static_cast<std::uint32_t>(proto.frame.size());

  // Patch the per-flow identity over the shared prototype. Every other
  // byte depends only on (frame_len, proto), which the prototype fixed.
  auto* eth = reinterpret_cast<EthernetHeader*>(buf.data);
  eth->set_dst(spec.dst_mac);
  eth->set_src(spec.src_mac);
  auto* ip = reinterpret_cast<Ipv4Header*>(buf.data + kEthLen);
  ip->set_src_addr(spec.src_ip);
  ip->set_dst_addr(spec.dst_ip);
  // internet_checksum's arithmetic with the fixed words pre-summed: add
  // the four address halves, fold, complement. The sum is below 2^19, so
  // two folds leave no carry.
  std::uint32_t sum = proto.ip_sum + (spec.src_ip >> 16) +
                      (spec.src_ip & 0xffffU) + (spec.dst_ip >> 16) +
                      (spec.dst_ip & 0xffffU);
  sum = (sum & 0xffffU) + (sum >> 16);
  sum = (sum & 0xffffU) + (sum >> 16);
  ip->set_hdr_checksum(static_cast<std::uint16_t>(~sum));
  if (spec.ip_proto == kIpProtoTcp) {
    auto* tcp = reinterpret_cast<TcpHeader*>(buf.data + kEthLen + kIpLen);
    tcp->set_sport(spec.src_port);
    tcp->set_dport(spec.dst_port);
  } else {
    auto* udp = reinterpret_cast<UdpHeader*>(buf.data + kEthLen + kIpLen);
    udp->set_sport(spec.src_port);
    udp->set_dport(spec.dst_port);
  }
  buf.flow_hash = 0;
}

double WorkloadGen::top_share(std::size_t k) const {
  if (track_topk_) return topk_.share(k);
  // Deterministic round-robin sweep: every active flow carries an equal
  // share, exactly k/n.
  const auto n = static_cast<double>(
      stats_.active_flows == 0 ? 1 : stats_.active_flows);
  const double frac = static_cast<double>(k) / n;
  return frac > 1.0 ? 1.0 : frac;
}

}  // namespace hw::pkt
