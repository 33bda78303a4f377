#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "classifier/dp_classifier.h"
#include "common/sampler.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "openflow/messages.h"
#include "pkt/headers.h"
#include "pkt/traffic_profile.h"
#include "pkt/workload_gen.h"

/// \file workload_cache_test.cpp
/// SKEW-AWARE CACHE ORACLE. The workload library's whole point is that
/// offered-load *shape* — not just packet count — decides where the
/// three-tier classifier resolves packets. These tests pin that causal
/// chain with analytic oracles from the samplers themselves:
///
///   * under Zipf skew, the EMC hit-rate must clear the stationary
///     self-hit mass of the hottest ranks (the same closed-form bound
///     bench_workloads gates on) and must rise with the exponent;
///   * Poisson flow churn may dilute but not destroy that locality;
///   * a fixed wide Zipf stream must hit, upcall and evict exactly the
///     pinned counts, whatever the probe's data structure.
///
/// Seeds are fixed through TrafficProfile, so every stream is
/// deterministic in every build config.

namespace hw::classifier {
namespace {

using flowtable::FlowTable;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;

constexpr std::uint64_t kWarmupPkts = 32'768;
constexpr std::uint64_t kMeasurePkts = 131'072;

/// Same rule shape as bench_workloads: a TCP-80 probe and an exact /32
/// probe force the slow path to unwildcard the full 5-tuple, so every
/// distinct flow costs its own megaflow entry (the honest working set).
void install_rules(FlowTable& table) {
  const auto add = [&table](openflow::Match match, std::uint16_t priority,
                            Cookie cookie) {
    FlowMod mod;
    mod.command = FlowModCommand::kAdd;
    mod.match = match;
    mod.priority = priority;
    mod.cookie = cookie;
    mod.actions = {Action::output(2)};
    (void)table.apply(mod);
  };
  add(openflow::Match{}.ip_proto(pkt::kIpProtoTcp).l4_dst(80), 20, 1);
  add(openflow::Match{}.ip_dst(pkt::ipv4(10, 1, 0, 1), 32), 10, 2);
  add(openflow::Match{}.ip_dst(pkt::ipv4(10, 0, 0, 0), 8), 5, 3);
  add(openflow::Match{}, 0, 4);  // catch-all
}

/// Analytic lower bound on the stationary EMC hit-rate under i.i.d.
/// Zipf(s) draws: rank f owns its direct-mapped bucket a
/// p_f / (p_f + tail) fraction of the time; top-k/top-k collisions are
/// discounted by a union bound. See bench_workloads.cpp for the full
/// derivation — the true hit-rate sits strictly above this.
double emc_zipf_lower_bound(std::uint64_t n, double s, std::uint64_t buckets,
                            std::uint64_t k) {
  const double hn = ZipfSampler::harmonic(n, s);
  const double top_mass = ZipfSampler::harmonic(k, s) / hn;
  const double tail_per_bucket =
      (1.0 - top_mass) / static_cast<double>(buckets);
  double bound = 0.0;
  for (std::uint64_t f = 1; f <= k; ++f) {
    const double p = std::pow(static_cast<double>(f), -s) / hn;
    bound += p * (p / (p + tail_per_bucket));
  }
  return bound *
         (1.0 - static_cast<double>(k) / static_cast<double>(buckets));
}

[[nodiscard]] pkt::FlowKey key_of(const pkt::TrafficProfile& profile,
                                  std::uint64_t flow_id) {
  const pkt::FrameSpec spec = profile.flow_spec(flow_id);
  pkt::FlowKey key;
  key.in_port = 1;
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = spec.ip_proto;
  key.src_ip = spec.src_ip;
  key.dst_ip = spec.dst_ip;
  key.src_port = spec.src_port;
  key.dst_port = spec.dst_port;
  return key;
}

struct StreamResult {
  double emc_rate = 0.0;
  double top16_share = 0.0;
  pkt::WorkloadStats stats;
  TierCounters total;      ///< over warm-up and measurement
  MegaflowStats megaflow;  ///< likewise
};

/// Drives `warmup + measure` workload-engine packets through a fresh
/// three-tier classifier, advancing virtual time 1 us per 32-packet
/// burst (the churn clock), and reports the measurement-window EMC rate.
StreamResult run_stream(const pkt::TrafficProfile& profile,
                        std::uint64_t warmup = kWarmupPkts,
                        std::uint64_t measure = kMeasurePkts) {
  exec::CostModel cost;
  FlowTable table;
  install_rules(table);
  DpClassifier dp(table, cost);
  exec::CycleMeter meter;
  pkt::WorkloadGen gen(profile);

  TimeNs now = 0;
  TierCounters at_warmup;
  std::uint64_t done = 0;
  while (done < warmup + measure) {
    if (gen.advance(now)) {
      for (int i = 0; i < 32 && done < warmup + measure; ++i, ++done) {
        const pkt::FlowKey key = key_of(profile, gen.pick_flow());
        (void)dp.lookup(key, pkt::flow_key_hash(key), meter);
        if (done + 1 == warmup) at_warmup = dp.counters();
      }
    }
    now += 1000;
  }

  const TierCounters& total = dp.counters();
  const std::uint64_t emc = total.emc_hits - at_warmup.emc_hits;
  StreamResult result;
  result.emc_rate =
      static_cast<double>(emc) / static_cast<double>(measure);
  result.top16_share = gen.top_share(16);
  result.stats = gen.stats();
  result.total = total;
  result.megaflow = dp.megaflow().stats();
  return result;
}

pkt::TrafficProfile zipf_profile(double s, std::uint32_t flows) {
  pkt::TrafficProfile profile;
  profile.flow_count = flows;
  profile.workload.distribution = pkt::FlowDistribution::kZipf;
  profile.workload.zipf_s = s;
  return profile;
}

TEST(WorkloadCacheTest, EmcHitRateClearsAnalyticBoundAndRisesWithSkew) {
  double prev_rate = 0.0;
  for (const double s : {0.9, 1.1, 1.3}) {
    const StreamResult r = run_stream(zipf_profile(s, 4096));
    const double bound =
        emc_zipf_lower_bound(4096, s, DpClassifier::kEmcBuckets, 64);
    EXPECT_GE(r.emc_rate, bound)
        << "s=" << s << ": measured EMC rate fell below the stationary "
        << "self-hit mass of the top-64 ranks";
    EXPECT_GT(r.emc_rate, prev_rate)
        << "s=" << s << ": heavier skew must concentrate more load on "
        << "the EMC-resident head";
    prev_rate = r.emc_rate;
  }
}

TEST(WorkloadCacheTest, TopShareSketchMatchesAnalyticTopKMass) {
  const StreamResult r = run_stream(zipf_profile(1.1, 4096));
  const double analytic = ZipfSampler::top_k_mass(16, 4096, 1.1);
  // SpaceSaving over-estimates bounded by count error; a loose band
  // still catches a broken sketch or a mis-shaped sampler.
  EXPECT_NEAR(r.top16_share, analytic, 0.1);
}

TEST(WorkloadCacheTest, PoissonChurnDilutesButKeepsZipfLocality) {
  const StreamResult steady = run_stream(zipf_profile(1.1, 4096));

  pkt::TrafficProfile churned = zipf_profile(1.1, 4096);
  churned.workload.churn = pkt::ChurnModel::kPoisson;
  churned.workload.arrival_per_sec = 2'000'000.0;
  churned.workload.mice_percent = 80;
  churned.workload.mice_packets = 16;
  churned.workload.elephant_lifetime_ns = 2'000'000;
  const StreamResult r = run_stream(churned);

  EXPECT_GT(r.stats.flow_arrivals, 0u);
  EXPECT_GT(r.stats.flow_departures, 0u);
  EXPECT_GT(r.stats.distinct_flows, 4096u)
      << "churn must mint fresh 5-tuples beyond the initial population";
  // Churn replaces tail flows constantly, but the Zipf head survives in
  // the population (hot ranks drift to the front on swap-pop), so the
  // EMC keeps the bulk of its locality.
  EXPECT_GE(r.emc_rate, 0.8 * steady.emc_rate);
  EXPECT_GT(r.top16_share, 0.3);
}

/// PINNED STREAM. Host-time comparisons across commits (hostbench's
/// trajectory) assume the same megaflows are cached and evicted on the
/// same stream, so that a faster probe cannot buy its speed by caching
/// something else. A default classifier (EMC on, megaflow cache at its
/// default flow limit) classifies a fixed Zipf(1.1) stream over 65,536
/// flows, wide enough that the clock hand evicts at the limit, and every
/// tier outcome is pinned to a constant. A change that moves one of them
/// changes what the cache holds: it must say so and re-pin.
TEST(WorkloadCacheTest, PinnedZipfStreamCachesAndEvictsTheSameEntries) {
  const StreamResult r = run_stream(zipf_profile(1.1, 65'536));
  EXPECT_EQ(r.total.emc_hits, 121'196u);
  EXPECT_EQ(r.total.megaflow_hits, 16'337u);
  EXPECT_EQ(r.total.slow_path_lookups, 26'307u);
  EXPECT_EQ(r.megaflow.capacity_evictions, 18'115u);
}

}  // namespace
}  // namespace hw::classifier
