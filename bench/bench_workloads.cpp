/// \file bench_workloads.cpp
/// The standing workload regression matrix: flow-popularity distribution
/// (round-robin / uniform / Zipf 0.9–1.3) × flow count (4k / 64k / 1M
/// distinct 5-tuples) × churn (none / Poisson mice-and-elephants /
/// ON-OFF), each driven through the real TrafficSource (lazy frame
/// synthesis) into the three-tier classifier.
///
/// Per config the table reports cost-model cycles/packet and where the
/// lookups resolved (EMC / megaflow / slow path) plus the offered-load
/// shape counters. The qualitative expectations this matrix guards come
/// from "An Empirical Model of Packet Processing Delay of the Open
/// vSwitch" (PAPERS.md): per-packet cost grows with the distinct-flow
/// count, and skew (Zipf) pulls it back down because the cache tiers
/// concentrate on the heavy hitters.
///
/// `--smoke` runs a 5-config subset and exits non-zero unless:
///   - the Zipf(1.1) 4k-flow config's EMC hit-rate clears its *analytic*
///     lower bound (stationary self-hit mass of the top-64 ranks in a
///     direct-mapped cache — see emc_zipf_lower_bound below);
///   - the legacy round-robin 4k config matches its pinned baseline
///     hit-rates (the pre-workload-library numbers) within tolerance;
///   - cycles/packet is monotone in flow count for round-robin, and
///     Zipf(1.1) beats round-robin at 4k flows (the skew dividend);
///   - the Poisson-churn config actually churns (arrivals and departures
///     both nonzero), and the 1M-flow Zipf config completes with zero
///     generator alloc failures (lazy synthesis, no O(flows) memory).

#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "classifier/dp_classifier.h"
#include "common/sampler.h"
#include "exec/cost_model.h"
#include "exec/runtime.h"
#include "flowtable/flow_table.h"
#include "mbuf/mempool.h"
#include "nic/traffic.h"
#include "openflow/messages.h"
#include "pkt/packet.h"
#include "pkt/traffic_profile.h"

namespace hw::bench {
namespace {

using classifier::DpClassifier;
using classifier::TierCounters;
using flowtable::FlowTable;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using pkt::ChurnModel;
using pkt::FlowDistribution;

bool g_smoke = false;

constexpr std::uint64_t kWarmupPkts = 32'768;
constexpr std::uint64_t kMeasurePkts = 131'072;
constexpr std::uint32_t kBurst = 32;

struct DistSpec {
  const char* name;
  FlowDistribution dist;
  double s;
};
constexpr DistSpec kDists[] = {
    {"rr", FlowDistribution::kRoundRobin, 0.0},
    {"uniform", FlowDistribution::kUniform, 0.0},
    {"zipf0.9", FlowDistribution::kZipf, 0.9},
    {"zipf1.1", FlowDistribution::kZipf, 1.1},
    {"zipf1.3", FlowDistribution::kZipf, 1.3},
};
constexpr std::int64_t kDistRr = 0;
constexpr std::int64_t kDistZipf11 = 3;

struct ChurnSpec {
  const char* name;
  ChurnModel model;
};
constexpr ChurnSpec kChurns[] = {
    {"none", ChurnModel::kNone},
    {"poisson", ChurnModel::kPoisson},
    {"onoff", ChurnModel::kOnOff},
};
constexpr std::int64_t kChurnNone = 0;
constexpr std::int64_t kChurnPoisson = 1;

struct Result {
  double cyc_per_pkt = 0;
  double emc_rate = 0;
  double mf_rate = 0;
  double slow_rate = 0;
  double top16 = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t active = 0;
  std::uint64_t distinct = 0;
  std::uint64_t alloc_failures = 0;
};
std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, Result>
    g_results;

/// Rule set shaped so the megaflow mask covers the full 5-tuple identity:
/// the TCP-80 probe unwildcards (ip_proto, l4_dst) and the exact-/32
/// probe unwildcards dst_ip, so every distinct flow costs its own
/// megaflow entry — the honest working set for cache-pressure scaling.
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

/// Analytic lower bound on the stationary EMC hit-rate of a direct-mapped
/// `buckets`-slot cache under i.i.d. Zipf(s) draws over n flows, counting
/// only the self-hits of the k hottest ranks. Rank f (probability p_f)
/// owns its bucket a p_f / (p_f + tail) fraction of the time, where tail
/// is the expected non-top-k mass hashed into the same bucket; the final
/// factor discounts top-k/top-k collisions by a union bound. Everything
/// the mid/tail ranks contribute is ignored, so the true hit-rate sits
/// strictly above this.
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

pkt::TrafficProfile make_profile(const DistSpec& dist, std::uint32_t flows,
                                 const ChurnSpec& churn) {
  pkt::TrafficProfile profile;
  profile.flow_count = flows;
  profile.seed = 7;
  profile.workload.distribution = dist.dist;
  profile.workload.zipf_s = dist.s;
  profile.workload.churn = churn.model;
  // Offered rate is 32 frames per 1 us epoch (= 32 Mpps virtual), so the
  // churn process is scaled to be clearly visible inside a ~5 ms window:
  // ~2M flow arrivals/s, mice dying after 16 packets, elephants after an
  // exponential 2 ms lifetime, ON/OFF phases of ~50 us.
  profile.workload.arrival_per_sec = 2e6;
  profile.workload.mice_percent = 80;
  profile.workload.mice_packets = 16;
  profile.workload.elephant_lifetime_ns = 2'000'000;
  profile.workload.max_active_flows = 65536;
  profile.workload.on_mean_ns = 50'000;
  profile.workload.off_mean_ns = 50'000;
  return profile;
}

void BM_Workload(benchmark::State& state) {
  const auto dist_idx = state.range(0);
  const auto flows = static_cast<std::uint32_t>(state.range(1));
  const auto churn_idx = state.range(2);
  const DistSpec& dist = kDists[dist_idx];
  const ChurnSpec& churn = kChurns[churn_idx];

  const exec::CostModel cost;
  exec::SimRuntime runtime(exec::SimConfig{.epoch_ns = 1000, .cost = cost});
  mbuf::Mempool pool("wl0", 4096);
  nic::TrafficSource source("gen", pool, make_profile(dist, flows, churn),
                            runtime);
  FlowTable table;
  install_rules(table);

  for (auto _ : state) {
    DpClassifier dp(table, cost, classifier::DpClassifierConfig{});
    std::array<mbuf::Mbuf*, kBurst> burst{};
    const auto pump = [&](std::uint64_t target, exec::CycleMeter& meter) {
      std::uint64_t done = 0;
      while (done < target) {
        const std::size_t n = source.produce(burst);
        for (std::size_t i = 0; i < n; ++i) {
          mbuf::Mbuf* buf = burst[i];
          const pkt::FlowKey key = pkt::extract_flow_key(*buf);
          const std::uint32_t hash = pkt::flow_hash_of(*buf);
          benchmark::DoNotOptimize(dp.lookup(key, hash, meter));
          pool.free(buf);
        }
        done += n;
        runtime.step_epoch();  // advance virtual time (churn clock)
      }
      return done;
    };

    exec::CycleMeter warm;
    pump(kWarmupPkts, warm);

    const TierCounters before = dp.counters();
    const pkt::WorkloadStats offered_before = source.workload_stats();
    exec::CycleMeter meter;
    const std::uint64_t measured = pump(kMeasurePkts, meter);

    const TierCounters tiers = dp.counters() - before;
    const pkt::WorkloadStats offered = source.workload_stats();
    Result result;
    const auto total = static_cast<double>(measured);
    result.cyc_per_pkt = static_cast<double>(meter.total_used()) / total;
    result.emc_rate = static_cast<double>(tiers.emc_hits) / total;
    result.mf_rate = static_cast<double>(tiers.megaflow_hits) / total;
    result.slow_rate = static_cast<double>(tiers.slow_path_lookups) / total;
    result.top16 = source.top_share(16);
    result.arrivals = offered.flow_arrivals - offered_before.flow_arrivals;
    result.departures =
        offered.flow_departures - offered_before.flow_departures;
    result.active = offered.active_flows;
    result.distinct = offered.distinct_flows;
    result.alloc_failures = source.alloc_failures();
    g_results[{dist_idx, state.range(1), churn_idx}] = result;

    state.counters["cyc_per_pkt"] = result.cyc_per_pkt;
    state.counters["emc_rate"] = result.emc_rate;
    state.counters["mf_rate"] = result.mf_rate;
    state.counters["slow_rate"] = result.slow_rate;
    state.counters["top16_share"] = result.top16;
    state.counters["active_flows"] = static_cast<double>(result.active);
    state.counters["flow_arrivals"] = static_cast<double>(result.arrivals);
    state.counters["flow_departures"] =
        static_cast<double>(result.departures);
    state.counters["gen_alloc_fail"] =
        static_cast<double>(result.alloc_failures);
    state.SetIterationTime(static_cast<double>(meter.total_used()) *
                           cost.ns_per_cycle() / 1e9);
  }
}

}  // namespace
}  // namespace hw::bench

int main(int argc, char** argv) {
  using namespace hw::bench;

  int out_argc = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      continue;
    }
    argv[out_argc++] = argv[i];
  }
  argc = out_argc;

  // {dist, flows, churn} triples. The smoke subset covers every gate; the
  // full matrix is the standing regression surface.
  std::vector<std::array<std::int64_t, 3>> configs;
  if (g_smoke) {
    configs = {{kDistRr, 4096, kChurnNone},
               {kDistRr, 65536, kChurnNone},
               {kDistZipf11, 4096, kChurnNone},
               {kDistZipf11, 4096, kChurnPoisson},
               {kDistZipf11, 1'048'576, kChurnNone}};
  } else {
    for (std::int64_t d = 0; d < 5; ++d) {
      for (const std::int64_t flows : {4096, 65536, 1'048'576}) {
        for (std::int64_t c = 0; c < 3; ++c) {
          configs.push_back({d, flows, c});
        }
      }
    }
  }
  auto* bench = benchmark::RegisterBenchmark("BM_Workload", BM_Workload);
  bench->ArgNames({"dist", "flows", "churn"});
  for (const auto& config : configs) {
    bench->Args({config[0], config[1], config[2]});
  }
  bench->Iterations(1)->UseManualTime()->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf(
      "\n=== Workload matrix: distribution x flows x churn "
      "(%llu pkts/config) ===\n",
      static_cast<unsigned long long>(kMeasurePkts));
  std::printf("%-9s %-9s %-9s %-11s %-6s %-6s %-6s %-7s %-9s %-9s %-8s\n",
              "dist", "flows", "churn", "cyc/pkt", "emc%", "mf%", "slow%",
              "top16", "arrivals", "departs", "active");
  for (const auto& [key, r] : g_results) {
    const auto& [d, flows, c] = key;
    std::printf(
        "%-9s %-9lld %-9s %-11.1f %-6.1f %-6.1f %-6.1f %-7.2f %-9llu "
        "%-9llu %-8llu\n",
        kDists[d].name, static_cast<long long>(flows), kChurns[c].name,
        r.cyc_per_pkt, 100.0 * r.emc_rate, 100.0 * r.mf_rate,
        100.0 * r.slow_rate, r.top16,
        static_cast<unsigned long long>(r.arrivals),
        static_cast<unsigned long long>(r.departures),
        static_cast<unsigned long long>(r.active));
  }
  std::printf(
      "\nExpected shape (empirical-OVS-delay paper, qualitatively):\n"
      "cycles/pkt grows with the distinct-flow count for flat\n"
      "distributions (cache pressure), and Zipf skew pulls it back down\n"
      "because the tiers concentrate on the heavy hitters.\n");

  if (!g_smoke) return 0;

  int failures = 0;
  const auto get = [&](std::int64_t d, std::int64_t f,
                       std::int64_t c) -> const Result& {
    return g_results.at({d, f, c});
  };

  // Gate 1: Zipf(1.1) @ 4k flows clears its analytic EMC lower bound.
  {
    const Result& r = get(kDistZipf11, 4096, kChurnNone);
    const double bound =
        emc_zipf_lower_bound(4096, 1.1, DpClassifier::kEmcBuckets, 64);
    if (r.emc_rate < bound) {
      std::fprintf(stderr,
                   "SMOKE FAIL: zipf1.1@4k EMC hit-rate %.3f below the "
                   "analytic top-64 lower bound %.3f\n",
                   r.emc_rate, bound);
      ++failures;
    } else {
      std::printf("SMOKE PASS: zipf1.1@4k EMC %.3f >= analytic bound %.3f\n",
                  r.emc_rate, bound);
    }
  }

  // Gate 2: the legacy round-robin sweep still lands on its pinned
  // baseline (pre-workload-library) tier split. The stream is fully
  // deterministic, so the band only absorbs hash-layout drift.
  {
    const Result& r = get(kDistRr, 4096, kChurnNone);
    // 4096 round-robin flows into 4096 direct-mapped buckets: the hit
    // rate is the singleton-bucket fraction of the flow_hash layout,
    // ~e^-1. Measured 0.380 — deterministic across builds because the
    // hash and the stream are both fixed.
    constexpr double kBaselineEmc = 0.380;
    constexpr double kBand = 0.05;
    if (std::fabs(r.emc_rate - kBaselineEmc) > kBand || r.slow_rate > 0.05) {
      std::fprintf(stderr,
                   "SMOKE FAIL: rr@4k tier split drifted (emc %.3f vs "
                   "pinned %.3f +/- %.2f, slow %.3f)\n",
                   r.emc_rate, kBaselineEmc, kBand, r.slow_rate);
      ++failures;
    } else {
      std::printf("SMOKE PASS: rr@4k emc %.3f (pinned %.3f), slow %.3f\n",
                  r.emc_rate, kBaselineEmc, r.slow_rate);
    }
  }

  // Gate 3: qualitative delay-vs-flow-count shape — more distinct flows
  // must not get cheaper under a flat sweep, and skew must pay off.
  {
    const double rr4k = get(kDistRr, 4096, kChurnNone).cyc_per_pkt;
    const double rr64k = get(kDistRr, 65536, kChurnNone).cyc_per_pkt;
    const double zipf4k = get(kDistZipf11, 4096, kChurnNone).cyc_per_pkt;
    if (rr64k < rr4k * 1.02) {
      std::fprintf(stderr,
                   "SMOKE FAIL: rr cycles/pkt did not grow with flow count "
                   "(4k: %.1f, 64k: %.1f)\n",
                   rr4k, rr64k);
      ++failures;
    }
    if (zipf4k > rr4k * 0.95) {
      std::fprintf(stderr,
                   "SMOKE FAIL: zipf1.1@4k (%.1f cyc/pkt) failed to beat "
                   "rr@4k (%.1f cyc/pkt)\n",
                   zipf4k, rr4k);
      ++failures;
    }
    if (rr64k >= rr4k * 1.02 && zipf4k <= rr4k * 0.95) {
      std::printf(
          "SMOKE PASS: shape rr 4k->64k %.1f->%.1f cyc/pkt, zipf1.1@4k "
          "%.1f\n",
          rr4k, rr64k, zipf4k);
    }
  }

  // Gate 4: the churn config actually churns.
  {
    const Result& r = get(kDistZipf11, 4096, kChurnPoisson);
    if (r.arrivals == 0 || r.departures == 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: poisson churn produced %llu arrivals / "
                   "%llu departures (both must be > 0)\n",
                   static_cast<unsigned long long>(r.arrivals),
                   static_cast<unsigned long long>(r.departures));
      ++failures;
    } else {
      std::printf("SMOKE PASS: churn %llu arrivals, %llu departures\n",
                  static_cast<unsigned long long>(r.arrivals),
                  static_cast<unsigned long long>(r.departures));
    }
  }

  // Gate 5: the 1M-distinct-5-tuple config completed (lazy synthesis —
  // no O(flows) template memory) without starving its generator.
  {
    const Result& r = get(kDistZipf11, 1'048'576, kChurnNone);
    if (r.alloc_failures != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: 1M-flow config hit %llu generator alloc "
                   "failures\n",
                   static_cast<unsigned long long>(r.alloc_failures));
      ++failures;
    } else {
      std::printf("SMOKE PASS: 1M-flow zipf config completed, 0 alloc "
                  "failures\n");
    }
  }

  return failures == 0 ? 0 : 1;
}
