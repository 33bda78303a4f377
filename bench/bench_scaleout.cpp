/// \file bench_scaleout.cpp
/// Multi-PMD scale-out: aggregate switching throughput vs engine count.
///
/// The switch is driven directly (no VM forwarders, no NICs): four dpdkr
/// port pairs carry `flows` distinct 5-tuples in a closed loop — frames
/// are injected into each in-port's guest ring, every engine is polled,
/// and whatever lands on an out-port is recycled back to its paired
/// in-port. Injection and recycling model the guest/NIC side and are
/// free; ONLY engine poll work is charged, each engine on its own
/// virtual-cycle meter. Aggregate throughput is delivered packets over
/// the *busiest* engine's cycles — exactly the wall-clock of an E-core
/// PMD pool, so the engines×flows sweep shows how close the RSS shard
/// gets to linear scaling (docs/SCALEOUT.md).
///
/// With one engine the RSS layer is off (the seed path: ports assigned
/// round-robin); with E > 1 every port's home engine 5-tuple-hashes its
/// rx burst through the indirection table and steers shares over SPSC
/// queues, and the EWMA auto-balancer is live. Scaling comes from two
/// effects: the classification work splits E ways, and each engine's EMC
/// only holds its own flow shard — at 8k flows a single engine thrashes
/// its 4k-bucket EMC into the megaflow tier while four engines serve
/// ~2k-flow shards from their first-tier caches.
///
/// `--smoke` runs {1, 4} engines at 8k flows and exits non-zero unless
/// the 4-engine aggregate is >= 2.5x the single engine (the CI gate for
/// the scale-out PR).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "bench_common.h"
#include "common/log.h"
#include "exec/context.h"
#include "exec/runtime.h"
#include "mbuf/mempool.h"
#include "openflow/messages.h"
#include "pkt/packet.h"
#include "shm/shm.h"
#include "vswitch/of_switch.h"

namespace hw::bench {
namespace {

constexpr std::uint32_t kPortPairs = 4;

bool g_smoke = false;
std::uint64_t g_warmup_rounds = 300;
std::uint64_t g_measure_rounds = 1200;

/// (engines, flows) -> aggregate Mpps, for the final table + smoke gate.
std::map<std::pair<std::int64_t, std::int64_t>, double> g_mpps;

struct Harness {
  shm::ShmManager shm;
  mbuf::Mempool pool;
  exec::SimRuntime runtime;
  vswitch::OfSwitch of;
  std::vector<PortId> rx_ports;
  std::vector<PortId> tx_ports;
  /// Frames waiting for guest-ring space, per port pair (the closed
  /// loop's reservoir; recycled frames land back here).
  std::deque<mbuf::Mbuf*> standby[kPortPairs];

  Harness(std::uint32_t engines, std::uint32_t flows)
      : pool("scaleout", 32 * 1024),
        runtime({.epoch_ns = 1000, .cost = {}}),
        of(shm, pool, runtime, runtime.cost(),
           {.ring_capacity = 4096,
            .engine_count = engines,
            .rss = {.enabled = true, .buckets = 256},
            .bypass_enabled = false}) {
    for (std::uint32_t p = 0; p < kPortPairs; ++p) {
      char name[16];
      std::snprintf(name, sizeof name, "rx%u", p);
      rx_ports.push_back(of.add_dpdkr_port(name).value());
    }
    for (std::uint32_t p = 0; p < kPortPairs; ++p) {
      char name[16];
      std::snprintf(name, sizeof name, "tx%u", p);
      tx_ports.push_back(of.add_dpdkr_port(name).value());
    }
    for (std::uint32_t p = 0; p < kPortPairs; ++p) {
      (void)of.handle_flow_mod(
          openflow::make_p2p_flowmod(rx_ports[p], tx_ports[p], 10, p + 1));
    }
    // One mbuf per flow, round-robined over the port pairs; the loop
    // keeps exactly these frames circulating.
    for (std::uint32_t i = 0; i < flows; ++i) {
      mbuf::Mbuf* buf = pool.alloc();
      pkt::FrameSpec spec;
      spec.src_ip = pkt::ipv4(10, 0, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i & 0xff));
      spec.dst_ip = pkt::ipv4(10, 1, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i & 0xff));
      spec.src_port = static_cast<std::uint16_t>(1000 + (i & 0x3fff));
      spec.dst_port = static_cast<std::uint16_t>(2000 + (i & 0x3fff));
      (void)pkt::build_frame(*buf, spec);
      standby[i % kPortPairs].push_back(buf);
    }
  }

  vswitch::DpdkrSwitchPort* dpdkr(PortId id) {
    return static_cast<vswitch::DpdkrSwitchPort*>(of.port(id));
  }

  /// One scheduling round: top up the guest rings, poll every engine on
  /// its own meter, recycle deliveries. Returns packets delivered.
  std::uint64_t round(std::vector<exec::CycleMeter>& meters) {
    for (std::uint32_t p = 0; p < kPortPairs; ++p) {
      auto& ring = dpdkr(rx_ports[p])->channel().b2a();
      while (!standby[p].empty() && ring.enqueue(standby[p].front())) {
        standby[p].pop_front();
      }
    }
    const auto engines = of.engines();
    for (std::size_t e = 0; e < engines.size(); ++e) {
      (void)engines[e]->poll(meters[e]);
    }
    std::uint64_t delivered = 0;
    mbuf::Mbuf* out[32];
    for (std::uint32_t p = 0; p < kPortPairs; ++p) {
      auto& ring = dpdkr(tx_ports[p])->channel().a2b();
      std::size_t n = 0;
      while ((n = ring.dequeue_burst(std::span(out))) > 0) {
        for (std::size_t i = 0; i < n; ++i) standby[p].push_back(out[i]);
        delivered += n;
      }
    }
    return delivered;
  }
};

void BM_Scaleout(benchmark::State& state) {
  const auto engines = static_cast<std::uint32_t>(state.range(0));
  const auto flows = static_cast<std::uint32_t>(state.range(1));
  set_log_level(LogLevel::kError);

  for (auto _ : state) {
    Harness harness(engines, flows);
    std::vector<exec::CycleMeter> meters(engines);
    for (std::uint64_t r = 0; r < g_warmup_rounds; ++r) {
      (void)harness.round(meters);
    }
    std::vector<Cycles> warm_cycles(engines);
    for (std::uint32_t e = 0; e < engines; ++e) {
      warm_cycles[e] = meters[e].total_used();
    }
    std::uint64_t delivered = 0;
    for (std::uint64_t r = 0; r < g_measure_rounds; ++r) {
      delivered += harness.round(meters);
    }

    // Wall-clock of an E-core pool = the busiest engine's cycles.
    Cycles busiest = 0;
    Cycles total = 0;
    for (std::uint32_t e = 0; e < engines; ++e) {
      const Cycles used = meters[e].total_used() - warm_cycles[e];
      busiest = used > busiest ? used : busiest;
      total += used;
    }
    const double ns =
        static_cast<double>(busiest) * harness.runtime.cost().ns_per_cycle();
    const double mpps =
        ns > 0 ? static_cast<double>(delivered) / ns * 1e3 : 0.0;
    g_mpps[{state.range(0), state.range(1)}] = mpps;

    state.counters["Mpps_agg"] = mpps;
    state.counters["delivered"] = static_cast<double>(delivered);
    // Pool balance: busiest engine vs mean (1.0 = perfectly even split).
    state.counters["imbalance"] =
        total > 0 ? static_cast<double>(busiest) * engines /
                        static_cast<double>(total)
                  : 0.0;
    std::uint64_t rss_distributed = 0;
    std::uint64_t rss_queue_drops = 0;
    for (std::size_t e = 0; e < engines; ++e) {
      const auto& counters = harness.of.engines()[e]->counters();
      rss_distributed += counters.rss_distributed;
      rss_queue_drops += counters.rss_queue_drops;
      export_engine_counter(state, e, "rx",
                            static_cast<double>(counters.rx_packets));
      export_engine_counter(
          state, e, "cyc",
          static_cast<double>(meters[e].total_used() - warm_cycles[e]));
    }
    state.counters["rss_distributed"] = static_cast<double>(rss_distributed);
    state.counters["rss_queue_drops"] = static_cast<double>(rss_queue_drops);
    const vswitch::RssStats rss = harness.of.rss_stats();
    state.counters["rebalance_checks"] =
        static_cast<double>(rss.rebalance_checks);
    state.counters["bucket_migrations"] =
        static_cast<double>(rss.bucket_migrations);

    state.SetIterationTime(ns / 1e9);
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
  if (g_smoke) {
    g_warmup_rounds = 200;
    g_measure_rounds = 600;
  }

  const std::vector<std::int64_t> engine_counts =
      g_smoke ? std::vector<std::int64_t>{1, 4}
              : std::vector<std::int64_t>{1, 2, 4};
  const std::vector<std::int64_t> flow_counts =
      g_smoke ? std::vector<std::int64_t>{8192}
              : std::vector<std::int64_t>{256, 8192};
  auto* bench = benchmark::RegisterBenchmark("BM_Scaleout", BM_Scaleout);
  bench->ArgNames({"engines", "flows"});
  for (const std::int64_t flows : flow_counts) {
    for (const std::int64_t engines : engine_counts) {
      bench->Args({engines, flows});
    }
  }
  bench->Iterations(1)->UseManualTime()->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\n=== Multi-PMD scale-out: aggregate Mpps vs engine count ===\n");
  std::printf("%-8s %-8s %-12s %-10s\n", "flows", "engines", "Mpps_agg",
              "scaling");
  double gate_scaling = -1;
  for (const auto& [key, mpps] : g_mpps) {
    const auto [engines, flows] = key;
    const auto base_it = g_mpps.find({1, flows});
    const double base = base_it != g_mpps.end() ? base_it->second : 0.0;
    const double scaling = base > 0 ? mpps / base : 0.0;
    std::printf("%-8lld %-8lld %-12.3f %.2fx\n",
                static_cast<long long>(flows),
                static_cast<long long>(engines), mpps, scaling);
    if (engines == 4 && flows == 8192) gate_scaling = scaling;
  }

  if (g_smoke) {
    if (gate_scaling < 2.5) {
      std::fprintf(stderr,
                   "SMOKE FAIL: 4-engine aggregate is %.2fx the single "
                   "engine at 8k flows (gate: >= 2.5x)\n",
                   gate_scaling);
      return 1;
    }
    std::printf("SMOKE PASS: 4-engine scaling %.2fx (gate >= 2.5x)\n",
                gate_scaling);
  }
  return 0;
}
