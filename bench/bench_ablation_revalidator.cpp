/// \file bench_ablation_revalidator.cpp
/// Ablation A9: the coalesced revalidator's drain cost under FlowMod
/// *bursts*, swept over burst size × cache fill.
///
/// The drain folds the whole burst into one plan (DELETE rule-id sets
/// unioned, overlapping ADD matches merged by containment) and charges
/// ONE pass over the suspects, per index probe, per entry examined and
/// per merged-ADD term tested — flat in burst size.
///
/// Each subtable finds the entries a query (a merged ADD term, or a
/// DELETE's own match) can touch by looking up the query's bucket in a
/// revalidation index of its shape (openflow::ShapeIndexSet). The
/// measured traffic carves megaflows across FIVE subtables
/// (staggered-priority steering rules interleave mask-diversifier rules,
/// so different ports accumulate different unwildcard sets), all on
/// ports the churn never names. The first drain of a shape examines
/// every entry of each subtable and builds its index; from then on every
/// bucket the churn looks up is empty, so a drain examines ≈ 0 entries
/// and the per-drain average falls with the number of rounds.
///
/// Methodology: the classifier is driven directly (no chain topology),
/// one key per lookup; the EMC is disabled so the megaflow tier's drain
/// cost is isolated; cost is virtual cycles from exec::CostModel. The
/// burst is controller-shaped: one broad /16 aggregate plus narrow /24
/// specifics beneath it (they merge into a compact plan) alternated with
/// strict deletes recycling earlier rules, all on a port the measured
/// traffic never enters — so the drain takes no suspects and the columns
/// show pure scan cost. `--smoke` runs the reduced sweep and the binary
/// exits non-zero unless, at 64-FlowMod bursts on the 4k fill, the drain
/// examines at most half the entries the cache held before it.

#include <benchmark/benchmark.h>

#include <algorithm>
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

namespace hw::bench {
namespace {

using classifier::DpClassifier;
using classifier::DpClassifierConfig;
using classifier::TierCounters;
using flowtable::FlowTable;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;

constexpr PortId kTrafficPorts = 6;
constexpr PortId kChurnPort = 7;  ///< the burst lands here, not on traffic

bool g_smoke = false;
std::uint64_t g_rounds = 24;

/// Rule set shaped so every traffic flow carves its own megaflow entry:
/// high-priority exact-ip_dst rules on the churn port are examined first
/// by every upcall, unwildcarding ip_dst/32 — so cache fill == flow
/// count, the regime where a pass over every entry would matter.
///
/// The steering rules are priority-staggered with *mask diversifier*
/// rules (matching no traffic) interleaved between them: a port-p flow's
/// upcall examines every rule above its own steering rule, so each
/// deeper port unites one more field into its unwildcard set — the fill
/// spreads over five distinct subtables instead of one, each with its
/// own revalidation indexes.
void install_base_rules(FlowTable& table) {
  for (std::uint32_t j = 0; j < 8; ++j) {
    FlowMod carve;
    carve.command = FlowModCommand::kAdd;
    carve.priority = 300;
    carve.cookie = 0x3000 + j;
    carve.match.in_port(kChurnPort).ip_dst(0x0b000000u + j, 32);
    carve.actions = {Action::output(1)};
    (void)table.apply(carve);
  }
  // Steering at 260, 240, 220, ... with a diversifier between each pair.
  openflow::Match diversifiers[4];
  diversifiers[0].l4_dst(9999);                 // no traffic uses 9999
  diversifiers[1].l4_src(9999);
  diversifiers[2].ip_src(0xdead0000u, 32);      // outside the flow range
  diversifiers[3].eth_type(0x86dd);             // traffic is IPv4
  for (PortId p = 1; p <= kTrafficPorts; ++p) {
    (void)table.apply(openflow::make_p2p_flowmod(
        p, p + 10, static_cast<std::uint16_t>(280 - 20 * p), p));
    if (p <= 4) {
      FlowMod div;
      div.command = FlowModCommand::kAdd;
      div.priority = static_cast<std::uint16_t>(270 - 20 * p);
      div.cookie = 0x4000 + p;
      div.match = diversifiers[p - 1];
      div.actions = {Action::output(1)};
      (void)table.apply(div);
    }
  }
  FlowMod catch_all;
  catch_all.command = FlowModCommand::kAdd;
  catch_all.priority = 0;
  catch_all.cookie = 0xffff;
  catch_all.actions = {Action::output(1)};
  (void)table.apply(catch_all);
}

/// One controller-shaped burst of `burst` FlowMods on the churn port:
/// the first mod installs (or round-robin deletes) a broad /16
/// aggregate, the rest narrow /24 specifics beneath it. None of them
/// can intersect the traffic megaflows (different in_port, different
/// ip_dst subnet), so the drain pays pure suspect-scan cost.
void apply_burst(FlowTable& table, std::uint32_t burst, std::uint64_t round) {
  for (std::uint32_t i = 0; i < burst; ++i) {
    FlowMod mod;
    const std::uint32_t slot = i % 32;
    const bool remove = ((round + i / 32) & 1) != 0;
    mod.command =
        remove ? FlowModCommand::kDeleteStrict : FlowModCommand::kAdd;
    mod.priority = 400;
    mod.cookie = 0x7000 + slot;
    if (slot == 0) {
      mod.match.in_port(kChurnPort).ip_dst(0x0c000000u, 16);
    } else {
      mod.match.in_port(kChurnPort)
          .ip_dst(0x0c000000u + (slot << 8), 24);
    }
    mod.actions = {Action::output(1)};
    (void)table.apply(mod);
  }
}

std::vector<pkt::FlowKey> make_flows(std::uint32_t count, Rng& rng) {
  std::vector<pkt::FlowKey> flows;
  flows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    pkt::FlowKey key;
    key.in_port = static_cast<PortId>(1 + rng.next_below(kTrafficPorts));
    key.ether_type = pkt::kEtherTypeIpv4;
    key.ip_proto = pkt::kIpProtoUdp;
    key.src_ip = 0xc0a80000u + i;
    key.dst_ip = 0x0a000000u + i;  // distinct → one megaflow per flow
    key.src_port = 1234;
    key.dst_port = 80;
    flows.push_back(key);
  }
  return flows;
}

struct Row {
  std::uint32_t fill = 0;
  std::uint32_t burst = 0;
  std::size_t subtables = 0;  ///< distinct megaflow subtables at fill
  double drain_cyc = 0;       ///< cycles per drain
  double scanned = 0;         ///< entries scanned per drain
  double held = 0;            ///< cache entries just before each drain
};
std::vector<Row> g_rows;

Row& row_for(std::uint32_t fill, std::uint32_t burst) {
  for (Row& row : g_rows) {
    if (row.fill == fill && row.burst == burst) return row;
  }
  g_rows.push_back(Row{.fill = fill, .burst = burst});
  return g_rows.back();
}

void BM_Revalidator(benchmark::State& state) {
  const auto fill = static_cast<std::uint32_t>(state.range(0));
  const auto burst = static_cast<std::uint32_t>(state.range(1));

  exec::CostModel cost;
  FlowTable table;
  install_base_rules(table);
  Rng flow_rng(0xabcd1234u ^ fill);
  const std::vector<pkt::FlowKey> flows = make_flows(fill, flow_rng);
  std::vector<std::uint32_t> hashes;
  hashes.reserve(flows.size());
  for (const pkt::FlowKey& key : flows) {
    hashes.push_back(pkt::flow_key_hash(key));
  }

  DpClassifierConfig config;
  config.emc_enabled = false;  // isolate the megaflow tier's drain cost

  double drain_cycles = 0;
  double scanned = 0;
  double held = 0;
  double passes = 0;
  double hit_rate = 0;
  std::size_t subtables = 0;
  for (auto _ : state) {
    DpClassifier dp(table, cost, config);
    exec::CycleMeter warm;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      benchmark::DoNotOptimize(dp.lookup(flows[i], hashes[i], warm));
    }
    const TierCounters before = dp.counters();
    exec::CycleMeter drain_meter;
    exec::CycleMeter steady_meter;
    std::uint64_t steady_lookups = 0;
    std::uint64_t held_total = 0;
    for (std::uint64_t round = 0; round < g_rounds; ++round) {
      held_total += dp.megaflow().entry_count();
      apply_burst(table, burst, round);
      // The next lookup drains the whole burst; everything it charges
      // beyond a plain cached lookup is revalidation cost.
      benchmark::DoNotOptimize(dp.lookup(flows[0], hashes[0], drain_meter));
      const std::uint64_t sweep = std::min<std::uint64_t>(flows.size(), 512);
      for (std::uint64_t i = 1; i <= sweep; ++i) {
        const std::size_t f = static_cast<std::size_t>(i % flows.size());
        benchmark::DoNotOptimize(
            dp.lookup(flows[f], hashes[f], steady_meter));
        ++steady_lookups;
      }
    }
    const TierCounters window = dp.counters() - before;
    drain_cycles = static_cast<double>(drain_meter.total_used()) /
                   static_cast<double>(g_rounds);
    scanned = static_cast<double>(window.reval_entries_scanned) /
              static_cast<double>(g_rounds);
    held = static_cast<double>(held_total) / static_cast<double>(g_rounds);
    passes = static_cast<double>(window.reval_batches) /
             static_cast<double>(g_rounds);
    subtables = dp.megaflow().subtable_count();
    hit_rate = steady_lookups > 0
                   ? static_cast<double>(window.megaflow_hits) /
                         static_cast<double>(steady_lookups + g_rounds)
                   : 0;
    state.SetIterationTime(
        static_cast<double>(drain_meter.total_used() +
                            steady_meter.total_used()) *
        cost.ns_per_cycle() / 1e9);
  }

  state.counters["drain_cyc"] = drain_cycles;
  state.counters["reval_scanned"] = scanned;
  state.counters["reval_batches"] = passes;
  state.counters["mf_hit_rate"] = hit_rate;
  state.counters["subtables"] = static_cast<double>(subtables);

  Row& row = row_for(fill, burst);
  row.subtables = subtables;
  row.drain_cyc = drain_cycles;
  row.scanned = scanned;
  row.held = held;
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
  if (g_smoke) g_rounds = 8;

  const std::vector<std::int64_t> fills =
      g_smoke ? std::vector<std::int64_t>{4096}
              : std::vector<std::int64_t>{512, 4096};
  const std::vector<std::int64_t> bursts =
      g_smoke ? std::vector<std::int64_t>{64}
              : std::vector<std::int64_t>{1, 4, 16, 64};
  auto* bench = benchmark::RegisterBenchmark("BM_Revalidator", BM_Revalidator);
  bench->ArgNames({"fill", "burst"});
  for (const std::int64_t fill : fills) {
    for (const std::int64_t burst : bursts) bench->Args({fill, burst});
  }
  bench->Iterations(1)->UseManualTime()->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf(
      "\n=== A9: coalesced revalidation under FlowMod bursts ===\n");
  std::printf("%-6s %-6s %-5s | %-12s %-10s\n", "fill", "burst", "subt",
              "drain cyc", "scanned");
  const Row* gate_row = nullptr;
  for (const auto& row : g_rows) {
    std::printf("%-6u %-6u %-5zu | %-12.0f %-10.0f\n", row.fill, row.burst,
                row.subtables, row.drain_cyc, row.scanned);
    if (row.fill == 4096 && row.burst == 64) gate_row = &row;
  }
  std::printf(
      "\nThe coalescing drain folds a FlowMod burst into one plan (DELETE\n"
      "ids unioned, ADD masks merged by containment) and makes one pass\n"
      "over the suspects — flat in burst size, charged per index probe,\n"
      "per entry examined and per merged-ADD term tested. Each subtable\n"
      "looks its suspects up in revalidation indexes: after the first\n"
      "drain has built them, churn on ports the traffic never uses finds\n"
      "every bucket empty, so a drain examines ~zero entries regardless\n"
      "of fill.\n");
  bool ok = true;
  if (gate_row != nullptr) {
    const bool pass = gate_row->scanned <= 0.5 * gate_row->held;
    std::printf(
        "acceptance: the drain examines at most half the entries the cache "
        "held before it at 64-FlowMod bursts on the 4k fill: %.0f of %.0f "
        "-> %s\n",
        gate_row->scanned, gate_row->held, pass ? "PASS" : "FAIL");
    ok = pass;
  }
  return ok ? 0 : 1;
}
