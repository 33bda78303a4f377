/// \file bench_ablation_churn.cpp
/// Ablation A8: megaflow hit-rate under control-plane churn, swept over
/// flow count × FlowMod rate.
///
/// The paper's transparent highway assumes the traditional OVS path keeps
/// its caches warm while the controller continuously installs and removes
/// steering rules. A classifier that flushed its megaflow cache on every
/// FlowMod would degenerate to slow-path-only under churn — the
/// pathological delay regime of the empirical OVS models — while the
/// OVS-style revalidator re-checks only the entries a change could
/// affect. The churn rules here live on a port the traffic never uses,
/// so the revalidator must retain every megaflow: the hit-rate stays flat
/// as the FlowMod rate grows.
///
/// Methodology: the classifier is driven directly (no chain topology),
/// one key per lookup; the EMC is disabled so the megaflow tier's
/// behaviour is isolated; cost is virtual cycles from exec::CostModel.
/// `--smoke` runs a reduced sweep (CI: exercise the churn path, don't
/// measure it) and the binary exits non-zero unless, for every flow
/// count, the hit-rate at the highest FlowMod rate is no lower than at
/// zero churn, with zero full-cache flushes anywhere in the sweep.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "classifier/dp_classifier.h"
#include "common/rng.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "openflow/messages.h"
#include "pkt/headers.h"
#include "telemetry/metrics.h"

namespace hw::bench {
namespace {

using classifier::DpClassifier;
using classifier::DpClassifierConfig;
using classifier::TierCounters;
using flowtable::FlowTable;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::Match;

constexpr PortId kTrafficPorts = 6;
constexpr PortId kChurnPort = 7;  ///< steering churn lands here, not on traffic

std::uint64_t g_lookups = 200'000;
bool g_smoke = false;

/// Steering rules for the traffic ports plus a catch-all.
void install_base_rules(FlowTable& table) {
  for (PortId p = 1; p <= kTrafficPorts; ++p) {
    (void)table.apply(openflow::make_p2p_flowmod(p, p + 10, 100, p));
  }
  FlowMod catch_all;
  catch_all.command = FlowModCommand::kAdd;
  catch_all.priority = 0;
  catch_all.cookie = 0xffff;
  catch_all.actions = {Action::output(1)};
  (void)table.apply(catch_all);
}

/// One churn step: alternately install and strictly remove a
/// high-priority rule on the churn port with a rotating L4 selector —
/// the controller shape the p-2-p detector watches, aimed at a port the
/// measured traffic never enters.
void churn_step(FlowTable& table, std::uint64_t step) {
  FlowMod mod;
  mod.command = (step & 1) ? FlowModCommand::kDeleteStrict
                           : FlowModCommand::kAdd;
  mod.priority = 200;
  mod.cookie = 0x7000 + step;
  mod.match.in_port(kChurnPort)
      .l4_dst(static_cast<std::uint16_t>(80 + (step / 2) % 8));
  mod.actions = {Action::output(1)};
  (void)table.apply(mod);
}

std::vector<pkt::FlowKey> make_flows(std::uint32_t count, Rng& rng) {
  std::vector<pkt::FlowKey> flows;
  flows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    pkt::FlowKey key;
    key.in_port = static_cast<PortId>(1 + rng.next_below(kTrafficPorts));
    key.ether_type = pkt::kEtherTypeIpv4;
    key.ip_proto = rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp;
    key.src_ip = 0xc0a80000u + i;
    key.dst_ip = 0x0a000000u + static_cast<std::uint32_t>(rng.next() & 0xffff);
    key.src_port = static_cast<std::uint16_t>(1024 + (i & 0x3fff));
    key.dst_port = static_cast<std::uint16_t>(80 + rng.next_below(8));
    flows.push_back(key);
  }
  return flows;
}

struct Row {
  std::uint32_t flows = 0;
  std::uint32_t mods_per_kpkt = 0;
  double hit_rate = 0;  ///< megaflow hits / lookups
  double cyc = 0;       ///< cycles per lookup
  std::uint64_t revalidations = 0;
  std::uint64_t flushes = 0;
};
std::vector<Row> g_rows;

/// Hit-rate time series (telemetry::MetricsSampler CSV) captured at the
/// highest churn rate: a flat line while the revalidator keeps every
/// megaflow.
std::string g_series_csv;
std::uint32_t g_series_flows = 0;

/// Registers per-interval hit-rate gauges over `dp`'s cumulative tier
/// counters — the same dp.* gauge names the chain scenario exports, so
/// docs/OBSERVABILITY.md covers both. The mutable captures snapshot the
/// previous sample; each callback runs exactly once per sample_now().
void register_hit_rate_gauges(telemetry::MetricsRegistry& registry,
                              const DpClassifier& dp) {
  const auto rate = [](std::uint64_t hits, std::uint64_t lookups) {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  };
  registry.gauge("dp.emc_hit_rate")
      .set_callback([&dp, rate, prev = TierCounters{}]() mutable {
        const TierCounters now = dp.counters();
        const std::uint64_t hits = now.emc_hits - prev.emc_hits;
        const std::uint64_t lookups =
            hits + (now.megaflow_hits - prev.megaflow_hits) +
            (now.slow_path_lookups - prev.slow_path_lookups);
        prev = now;
        return rate(hits, lookups);
      });
  registry.gauge("dp.megaflow_hit_rate")
      .set_callback([&dp, rate, prev = TierCounters{}]() mutable {
        const TierCounters now = dp.counters();
        const std::uint64_t hits = now.megaflow_hits - prev.megaflow_hits;
        const std::uint64_t lookups =
            hits + (now.emc_hits - prev.emc_hits) +
            (now.slow_path_lookups - prev.slow_path_lookups);
        prev = now;
        return rate(hits, lookups);
      });
}

Row& row_for(std::uint32_t flows, std::uint32_t mods) {
  for (Row& row : g_rows) {
    if (row.flows == flows && row.mods_per_kpkt == mods) return row;
  }
  g_rows.push_back(Row{.flows = flows, .mods_per_kpkt = mods});
  return g_rows.back();
}

void BM_Churn(benchmark::State& state) {
  const auto flow_count = static_cast<std::uint32_t>(state.range(0));
  const auto mods_per_kpkt = static_cast<std::uint32_t>(state.range(1));

  exec::CostModel cost;
  FlowTable table;
  install_base_rules(table);
  Rng rng(0xc0defeedu ^ flow_count ^ (mods_per_kpkt << 16));
  const std::vector<pkt::FlowKey> flows = make_flows(flow_count, rng);
  std::vector<std::uint32_t> hashes;
  hashes.reserve(flows.size());
  for (const pkt::FlowKey& key : flows) {
    hashes.push_back(pkt::flow_key_hash(key));
  }
  const std::uint64_t mod_interval =
      mods_per_kpkt > 0 ? std::max<std::uint64_t>(1000 / mods_per_kpkt, 1)
                        : 0;

  DpClassifierConfig config;
  config.emc_enabled = false;  // isolate the megaflow tier

  double hit_rate = 0;
  double cycles_per_lookup = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t flushes = 0;
  for (auto _ : state) {
    DpClassifier dp(table, cost, config);
    exec::CycleMeter warm;
    // Warm the megaflow tier with one pass (plus one churn step so every
    // rate starts from the same rule population shape).
    churn_step(table, 0);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      benchmark::DoNotOptimize(dp.lookup(flows[i], hashes[i], warm));
    }
    exec::CycleMeter meter;
    const TierCounters before = dp.counters();
    // No runtime here, so the sampler is driven manually: one sample per
    // 1/20th of the run, stamped with virtual time from the meter.
    telemetry::MetricsRegistry registry;
    register_hit_rate_gauges(registry, dp);
    telemetry::MetricsSampler sampler(registry);
    const std::uint64_t sample_interval = std::max<std::uint64_t>(
        g_lookups / 20, 1);
    std::uint64_t churn = 1;
    for (std::uint64_t i = 0; i < g_lookups; ++i) {
      if (mod_interval != 0 && i % mod_interval == 0) {
        churn_step(table, churn++);
      }
      const std::size_t f = static_cast<std::size_t>(i % flows.size());
      benchmark::DoNotOptimize(dp.lookup(flows[f], hashes[f], meter));
      if ((i + 1) % sample_interval == 0) {
        sampler.sample_now(static_cast<TimeNs>(
            static_cast<double>(meter.total_used()) * cost.ns_per_cycle()));
      }
    }
    const TierCounters& after = dp.counters();
    hit_rate = static_cast<double>(after.megaflow_hits -
                                   before.megaflow_hits) /
               static_cast<double>(g_lookups);
    cycles_per_lookup = static_cast<double>(meter.total_used()) /
                        static_cast<double>(g_lookups);
    revalidations = after.megaflow_revalidations - before.megaflow_revalidations;
    flushes = after.megaflow_invalidations - before.megaflow_invalidations;
    state.SetIterationTime(static_cast<double>(meter.total_used()) *
                           cost.ns_per_cycle() / 1e9);
    if (mods_per_kpkt == 256) {
      // Keep the highest-churn time series for the post-run printout
      // (last flow count wins; the shape is what matters).
      g_series_csv = sampler.export_csv();
      g_series_flows = flow_count;
    }
  }

  state.counters["mf_hit_rate"] = hit_rate;
  state.counters["cyc_per_pkt"] = cycles_per_lookup;
  state.counters["revalidations"] = static_cast<double>(revalidations);
  state.counters["flushes"] = static_cast<double>(flushes);

  Row& row = row_for(flow_count, mods_per_kpkt);
  row.hit_rate = hit_rate;
  row.cyc = cycles_per_lookup;
  row.revalidations = revalidations;
  row.flushes = flushes;
}

}  // namespace
}  // namespace hw::bench

int main(int argc, char** argv) {
  using namespace hw::bench;

  // Strip our own flag before google-benchmark parses the rest.
  int out_argc = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      continue;
    }
    argv[out_argc++] = argv[i];
  }
  argc = out_argc;
  if (g_smoke) g_lookups = 20'000;

  const std::vector<std::int64_t> flow_counts =
      g_smoke ? std::vector<std::int64_t>{512}
              : std::vector<std::int64_t>{512, 4096};
  const std::vector<std::int64_t> mod_rates =
      g_smoke ? std::vector<std::int64_t>{0, 256}
              : std::vector<std::int64_t>{0, 8, 64, 256};
  auto* bench = benchmark::RegisterBenchmark("BM_Churn", BM_Churn);
  bench->ArgNames({"flows", "mods_per_kpkt"});
  for (const std::int64_t flows : flow_counts) {
    for (const std::int64_t mods : mod_rates) {
      bench->Args({flows, mods});
    }
  }
  bench->Iterations(1)->UseManualTime()->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf(
      "\n=== A8: megaflow hit-rate under FlowMod churn (%llu lookups) ===\n",
      static_cast<unsigned long long>(g_lookups));
  std::printf("%-8s %-14s | %-8s %-10s | %-8s %-8s\n", "flows", "mods/kpkt",
              "hit%", "cyc", "revals", "flushes");
  std::uint32_t max_rate = 0;
  for (const auto& row : g_rows) max_rate = std::max(max_rate, row.mods_per_kpkt);
  bool ok = true;
  std::uint64_t total_flushes = 0;
  for (const auto& row : g_rows) {
    std::printf("%-8u %-14u | %-8.1f %-10.1f | %-8llu %-8llu\n", row.flows,
                row.mods_per_kpkt, 100.0 * row.hit_rate, row.cyc,
                static_cast<unsigned long long>(row.revalidations),
                static_cast<unsigned long long>(row.flushes));
    total_flushes += row.flushes;
  }
  std::printf(
      "\nThe churn rules live on a port the traffic never uses: the\n"
      "revalidator retains every megaflow, so the hit-rate stays flat as\n"
      "churn grows.\n");
  if (!g_series_csv.empty()) {
    // dp.emc_hit_rate stays 0 here by construction: this ablation runs
    // with the EMC disabled to isolate the megaflow tier.
    std::printf(
        "\n--- hit-rate time series (flows=%u, 256 mods/kpkt, virtual "
        "ns) ---\n%s",
        g_series_flows, g_series_csv.c_str());
  }
  for (const auto& churned : g_rows) {
    if (churned.mods_per_kpkt != max_rate || max_rate == 0) continue;
    for (const auto& calm : g_rows) {
      if (calm.flows != churned.flows || calm.mods_per_kpkt != 0) continue;
      const bool pass = churned.hit_rate >= calm.hit_rate;
      std::printf(
          "acceptance: hit-rate at %u mods/kpkt >= at 0 mods/kpkt "
          "(flows=%u): %.1f%% vs %.1f%% -> %s\n",
          max_rate, churned.flows, 100.0 * churned.hit_rate,
          100.0 * calm.hit_rate, pass ? "PASS" : "FAIL");
      ok = ok && pass;
    }
  }
  std::printf("acceptance: zero full-cache flushes under churn: %llu -> %s\n",
              static_cast<unsigned long long>(total_flushes),
              total_flushes == 0 ? "PASS" : "FAIL");
  ok = ok && total_flushes == 0;
  return ok ? 0 : 1;
}
