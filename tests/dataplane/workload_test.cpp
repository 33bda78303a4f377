#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "exec/runtime.h"
#include "mbuf/mempool.h"
#include "pkt/checksum.h"
#include "pkt/endpoint.h"
#include "pkt/packet.h"
#include "pkt/traffic_profile.h"
#include "pkt/workload_gen.h"

/// \file workload_test.cpp
/// Workload-engine dataplane tests: the lazy frame synthesis must be
/// byte-identical to the retired per-flow template path (build_frame over
/// make_flows()), a source must offer a million distinct 5-tuples without
/// per-flow generator state, churn/gating must be visible at the source
/// boundary, the sink's per-flow order tracker must count intra-flow
/// regressions while ignoring cross-flow interleave, and a profile's seed
/// must fix its pick stream.

namespace hw::pkt {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : pool_("p", 8192), runtime_({.epoch_ns = 1000, .cost = {}}) {}

  mbuf::Mempool pool_;
  exec::SimRuntime runtime_;
};

TEST_F(WorkloadTest, LazySynthesisIsByteIdenticalToTemplatePath) {
  // web_percent > 0 exercises both prototype frames (TCP and UDP) and
  // the stateless per-flow web decision; odd frame_len exercises the
  // padding tail.
  for (const std::uint32_t frame_len : {64u, 127u, 1518u}) {
    pkt::TrafficProfile profile;
    profile.frame_len = frame_len;
    profile.flow_count = 64;
    profile.web_percent = 30;
    profile.seed = 7;
    pkt::WorkloadGen gen(profile);
    const std::vector<pkt::FrameSpec> flows = profile.make_flows();

    mbuf::Mbuf lazy, templ;
    for (std::uint32_t i = 0; i < profile.flow_count; ++i) {
      lazy.reset();
      templ.reset();
      gen.synthesize(lazy, i);
      ASSERT_TRUE(pkt::build_frame(templ, flows[i])) << "flow " << i;
      ASSERT_EQ(lazy.data_len, templ.data_len)
          << "flow " << i << " len " << frame_len;
      ASSERT_EQ(std::memcmp(lazy.data, templ.data, lazy.data_len), 0)
          << "flow " << i << " len " << frame_len
          << ": lazy synthesis diverged from build_frame";
      ASSERT_EQ(lazy.flow_hash, 0u) << "synthesis must not pre-cache a hash";
    }
  }
}

TEST_F(WorkloadTest, SynthesizedChecksumsFoldEveryCarry) {
  // Addresses near 255.255.255.255 make every 16-bit half of the header
  // sum large, src_ip + id wraps past 2^32, and 2^17 ids (across 2^16)
  // walk the low halves through every value, so some headers need the
  // checksum's second fold. Every header must verify and match
  // build_frame byte for byte.
  for (const std::uint32_t frame_len : {64u, 1518u}) {
    pkt::TrafficProfile profile;
    profile.frame_len = frame_len;
    profile.src_ip_base = pkt::ipv4(255, 255, 255, 200);
    profile.dst_ip_base = pkt::ipv4(255, 255, 254, 9);
    profile.web_percent = 30;
    profile.seed = 9;
    pkt::WorkloadGen gen(profile);

    mbuf::Mbuf lazy, templ;
    std::uint64_t second_folds = 0;
    for (std::uint64_t id = 0; id < (std::uint64_t{1} << 17); ++id) {
      gen.synthesize(lazy, id);
      const std::byte* ip = lazy.data + sizeof(pkt::EthernetHeader);
      ASSERT_TRUE(pkt::checksum_ok({ip, sizeof(pkt::Ipv4Header)}))
          << "flow " << id << " len " << frame_len;
      ASSERT_TRUE(pkt::build_frame(templ, profile.flow_spec(id)));
      ASSERT_EQ(lazy.data_len, templ.data_len);
      ASSERT_EQ(std::memcmp(lazy.data, templ.data, lazy.data_len), 0)
          << "flow " << id << " len " << frame_len;
      // The header's words other than the checksum, folded once.
      std::uint32_t sum = 0;
      for (std::size_t off = 0; off < sizeof(pkt::Ipv4Header); off += 2) {
        if (off != 10) sum += pkt::load_be16(ip + off);
      }
      if ((sum & 0xffffU) + (sum >> 16) > 0xffffU) ++second_folds;
    }
    EXPECT_GT(second_folds, 0u) << "no header needed the second fold";
  }
}

TEST_F(WorkloadTest, LegacyProfileKeepsRoundRobinStream) {
  // Default WorkloadConfig must reproduce the retired template
  // generator exactly: flows swept in index order, frames byte-equal.
  pkt::TrafficProfile profile;
  profile.flow_count = 5;
  Endpoint source(profile, pool_, runtime_);
  const std::vector<pkt::FrameSpec> flows = profile.make_flows();

  mbuf::Mbuf* burst[16];
  mbuf::Mbuf expect;
  SeqNo seq = 1;
  for (int poll = 0; poll < 4; ++poll) {
    const std::size_t n = source.generate(burst);
    ASSERT_EQ(n, 16u);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t flow = (static_cast<std::size_t>(poll) * 16 + i) %
                               profile.flow_count;
      expect.reset();
      ASSERT_TRUE(pkt::build_frame(expect, flows[flow]));
      ASSERT_EQ(burst[i]->data_len, expect.data_len);
      ASSERT_EQ(std::memcmp(burst[i]->data, expect.data, expect.data_len),
                0)
          << "poll " << poll << " frame " << i;
      EXPECT_EQ(burst[i]->seq, seq++);
      pool_.free(burst[i]);
    }
  }
  EXPECT_EQ(source.workload_stats().active_flows, 5u);
  EXPECT_EQ(source.workload_stats().distinct_flows, 5u);
}

TEST_F(WorkloadTest, MillionFlowZipfSourceNeedsNoPerFlowState) {
  pkt::TrafficProfile profile;
  profile.flow_count = 1'048'576;
  profile.workload.distribution = pkt::FlowDistribution::kZipf;
  profile.workload.zipf_s = 1.1;
  Endpoint source(profile, pool_, runtime_);

  mbuf::Mbuf* burst[32];
  for (int poll = 0; poll < 256; ++poll) {
    const std::size_t n = source.generate(burst);
    ASSERT_EQ(n, 32u);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(burst[i]->data_len, 64u);
      pool_.free(burst[i]);
    }
    runtime_.step_epoch();
  }
  EXPECT_EQ(source.workload_stats().offered, 256u * 32u);
  EXPECT_EQ(source.counters().alloc_failures, 0u);
  EXPECT_EQ(source.workload_stats().active_flows, 1'048'576u);
  // The hottest ranks must dominate even with a million-flow tail.
  EXPECT_GT(source.top_share(64), 0.3);
}

TEST_F(WorkloadTest, PoissonChurnArrivesAndDepartsAtTheSource) {
  pkt::TrafficProfile profile;
  profile.flow_count = 256;
  profile.workload.distribution = pkt::FlowDistribution::kZipf;
  profile.workload.churn = pkt::ChurnModel::kPoisson;
  profile.workload.arrival_per_sec = 2'000'000.0;  // ~2 per us epoch
  profile.workload.mice_percent = 80;
  profile.workload.mice_packets = 16;
  profile.workload.elephant_lifetime_ns = 500'000;
  profile.workload.max_active_flows = 1024;
  Endpoint source(profile, pool_, runtime_);

  mbuf::Mbuf* burst[32];
  for (int poll = 0; poll < 4096; ++poll) {  // ~4 ms virtual
    const std::size_t n = source.generate(burst);
    for (std::size_t i = 0; i < n; ++i) pool_.free(burst[i]);
    runtime_.step_epoch();
  }
  const pkt::WorkloadStats& stats = source.workload_stats();
  EXPECT_GT(stats.flow_arrivals, 0u);
  EXPECT_GT(stats.flow_departures, 0u);
  EXPECT_LE(stats.active_flows, 1024u);
  EXPECT_GT(stats.distinct_flows, 256u)
      << "churn must mint 5-tuples beyond the initial population";
}

TEST_F(WorkloadTest, OnOffGateSilencesTheSourceInOffPhases) {
  pkt::TrafficProfile profile;
  profile.flow_count = 16;
  profile.workload.churn = pkt::ChurnModel::kOnOff;
  profile.workload.on_mean_ns = 20'000;
  profile.workload.off_mean_ns = 20'000;
  Endpoint source(profile, pool_, runtime_);

  mbuf::Mbuf* burst[32];
  std::uint64_t silent_polls = 0;
  std::uint64_t active_polls = 0;
  for (int poll = 0; poll < 2000; ++poll) {  // 2 ms over ~20 us phases
    const std::size_t n = source.generate(burst);
    if (n == 0) {
      ++silent_polls;
    } else {
      ++active_polls;
      for (std::size_t i = 0; i < n; ++i) pool_.free(burst[i]);
    }
    runtime_.step_epoch();
  }
  EXPECT_GT(silent_polls, 100u) << "the OFF phases never gated the source";
  EXPECT_GT(active_polls, 100u) << "the ON phases never opened the gate";
  EXPECT_EQ(source.workload_stats().offered, active_polls * 32u);
}

TEST_F(WorkloadTest, SinkCountsIntraFlowRegressionsOnly) {
  pkt::TrafficProfile profile;
  profile.flow_count = 2;
  pkt::WorkloadGen gen(profile);
  Endpoint sink(profile, pool_, runtime_, /*generate=*/false);

  const auto frame = [&](std::uint64_t flow, SeqNo seq) {
    mbuf::Mbuf* buf = pool_.alloc();
    gen.synthesize(*buf, flow);
    buf->seq = seq;
    buf->ts_ns = runtime_.epoch_start_ns();
    return buf;
  };

  // Cross-flow interleave of globally increasing seqs: no reorder.
  mbuf::Mbuf* in_order[] = {frame(0, 1), frame(1, 2), frame(0, 3),
                            frame(1, 4)};
  sink.sink(in_order);
  EXPECT_EQ(sink.counters().reorders, 0u);

  // A genuine regression inside flow 0 (5 then 4): exactly one reorder,
  // and the interleaved flow-1 frame between them must not mask it.
  mbuf::Mbuf* regression[] = {frame(0, 5), frame(1, 6), frame(0, 4)};
  sink.sink(regression);
  EXPECT_EQ(sink.counters().reorders, 1u);

  // Resuming in order must not double-count the old regression.
  mbuf::Mbuf* resume[] = {frame(0, 7), frame(1, 8)};
  sink.sink(resume);
  EXPECT_EQ(sink.counters().reorders, 1u);
  EXPECT_EQ(sink.counters().delivered, 9u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(WorkloadTest, StarvedSourceCountsAllocFailures) {
  mbuf::Mempool tiny("tiny", 4);
  pkt::TrafficProfile profile;
  Endpoint source(profile, tiny, runtime_);

  mbuf::Mbuf* burst[32];
  const std::size_t n = source.generate(burst);
  EXPECT_EQ(n, 4u) << "a 4-buffer pool can fill exactly 4 frames";
  EXPECT_EQ(source.counters().alloc_failures, 1u);
  EXPECT_EQ(source.generate(burst), 0u) << "pool fully drained";
  EXPECT_EQ(source.counters().alloc_failures, 2u);
  for (std::size_t i = 0; i < n; ++i) tiny.free(burst[i]);
}

/// FNV-1a over the little-endian bytes of `picks` successive pick_flow()
/// ids, 32 picks per microsecond of virtual time (the churn clock).
std::uint64_t pick_digest(const pkt::TrafficProfile& profile,
                          std::uint64_t picks) {
  pkt::WorkloadGen gen(profile);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t done = 0;
  for (TimeNs now = 0; done < picks; now += 1000) {
    if (!gen.advance(now)) continue;
    for (int i = 0; i < 32 && done < picks; ++i, ++done) {
      const std::uint64_t id = gen.pick_flow();
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (id >> (8 * byte)) & 0xffU;
        digest *= 0x100000001b3ULL;
      }
    }
  }
  return digest;
}

TEST_F(WorkloadTest, PickStreamIsPinnedBySeed) {
  // Host-time comparisons across commits rely on a seed fixing the work:
  // hostbench runs two commits on the same seed and compares their CPU
  // time. A change that moves a single pick fails here; such a change
  // must be compared over many seeds, and say so, before these digests
  // are pinned again.

  // hostbench's forward profile for its seed 1 (profile seed 2*1 + 1).
  pkt::TrafficProfile forward;
  forward.flow_count = 8192;
  forward.web_percent = 20;
  forward.workload.distribution = pkt::FlowDistribution::kZipf;
  forward.workload.zipf_s = 1.1;
  forward.seed = 3;
  EXPECT_EQ(pick_digest(forward, 100'000), 0xbc13f899c6a694e7ULL);

  // Poisson churn: the population, and so n, changes between draws.
  pkt::TrafficProfile churn;
  churn.flow_count = 256;
  churn.workload.distribution = pkt::FlowDistribution::kZipf;
  churn.workload.churn = pkt::ChurnModel::kPoisson;
  churn.workload.arrival_per_sec = 2'000'000.0;
  churn.workload.mice_percent = 80;
  churn.workload.mice_packets = 16;
  churn.workload.elephant_lifetime_ns = 500'000;
  churn.workload.max_active_flows = 1024;
  churn.seed = 11;
  EXPECT_EQ(pick_digest(churn, 100'000), 0xe84f5a606e248092ULL);

  // A million flows: past the word bounds, every draw in floating point.
  pkt::TrafficProfile million;
  million.flow_count = 1'048'576;
  million.workload.distribution = pkt::FlowDistribution::kZipf;
  million.workload.zipf_s = 1.1;
  million.seed = 5;
  EXPECT_EQ(pick_digest(million, 100'000), 0xe7431142a387bab7ULL);
}

}  // namespace
}  // namespace hw::pkt
