/// \file bench_ablation_signature.cpp
/// Ablation A9: signature-accelerated + batched megaflow classification,
/// swept over flow count (which drives entries per subtable) × mask
/// diversity — a four-step ladder that separates every acceleration the
/// megaflow tier stacks on top of the portable signature scan:
///
///   * sig-scalar — 16-bit signature array scanned with the portable
///                  scalar loop (`sig_scan_mode = kScalar`), full
///                  compares only on fingerprint matches;
///   * sig-simd   — the same array scanned with real SIMD blocks
///                  (SSE2/NEON via hw::simd, one 16-lane compare per
///                  block) — the scalar-vs-SIMD gap is pure scan cost;
///   * simd+pf    — plus the per-subtable counting-Bloom prefilter:
///                  probes skip whole subtables that provably cannot
///                  hold the masked key (`subtables_skipped`);
///   * sig+batch  — plus lookup_batch (32-packet batches): one pass per
///                  subtable over the whole batch, rank dispatch and
///                  EWMA accounting amortized — the full pipeline.
///
/// The first three rungs classify one key per lookup (a batch of one).
///
/// Methodology: the classifier is driven directly (no chain topology);
/// the EMC is disabled so the megaflow tier is isolated; cost is virtual
/// cycles from exec::CostModel. `--smoke` runs a reduced sweep (CI:
/// exercise the path, don't measure it); in every run the binary exits
/// non-zero if (a) sig+batch fails to reach >= 1.5x the sig-scalar
/// throughput, or (b) the SIMD scan fails to reach >= 1.5x the scalar
/// signature scan (skipped with a note when this binary has no SIMD
/// backend compiled in, e.g. -DHW_FORCE_SCALAR=ON), on the >= 8 masks ×
/// >= 4k flows configurations.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "classifier/dp_classifier.h"
#include "common/rng.h"
#include "common/simd.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "openflow/messages.h"
#include "pkt/headers.h"

namespace hw::bench {
namespace {

using classifier::DpClassifier;
using classifier::DpClassifierConfig;
using classifier::LookupOutcome;
using classifier::SigScanMode;
using classifier::TierCounters;
using flowtable::FlowTable;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::Match;

constexpr std::uint32_t kRuleCount = 64;
constexpr std::size_t kBatch = 32;
constexpr PortId kOutPort = 1;

std::uint64_t g_lookups = 200'000;
bool g_smoke = false;

enum Mode : std::int64_t {
  kSigScalar = 0,
  kSigSimd = 1,
  kSimdPrefilter = 2,
  kSigBatch = 3,
};
constexpr std::int64_t kModeCount = 4;
constexpr const char* kModeNames[kModeCount] = {"sig-scalar", "sig-simd",
                                                "simd+pf", "sig+batch"};

/// One distinct match shape per mask-diversity step (salted so rules
/// within a shape stay distinct) — same population as ablation A7.
Match shaped_match(std::uint32_t shape, std::uint32_t salt) {
  Match match;
  switch (shape % 8) {
    case 0:
      match.in_port(static_cast<PortId>(1 + salt % 6));
      break;
    case 1:
      match.in_port(static_cast<PortId>(1 + salt % 6))
          .l4_dst(static_cast<std::uint16_t>(80 + salt % 8));
      break;
    case 2:
      match.ip_dst(0x0a000000u + ((salt % 16) << 8), 24);
      break;
    case 3:
      match.ip_dst(0x0a000000u + ((salt % 4) << 16), 16);
      break;
    case 4:
      match.ip_proto(pkt::kIpProtoUdp).ip_dst(0x0a000000u, 8);
      break;
    case 5:
      match.in_port(static_cast<PortId>(1 + salt % 6))
          .ip_proto(salt % 2 ? pkt::kIpProtoUdp : pkt::kIpProtoTcp);
      break;
    case 6:
      match.l4_dst(static_cast<std::uint16_t>(5000 + salt % 8));
      break;
    default:
      match.ip_src(0xc0a80000u + ((salt % 16) << 8), 24);
      break;
  }
  return match;
}

void install_rules(FlowTable& table, std::uint32_t mask_diversity) {
  for (std::uint32_t i = 0; i < kRuleCount; ++i) {
    FlowMod mod;
    mod.command = FlowModCommand::kAdd;
    mod.match = shaped_match(i % mask_diversity, i);
    mod.priority = static_cast<std::uint16_t>(10 + (i % 7) * 10);
    mod.cookie = i;
    mod.actions = {Action::output(kOutPort)};
    (void)table.apply(mod);
  }
  FlowMod catch_all;
  catch_all.command = FlowModCommand::kAdd;
  catch_all.priority = 0;
  catch_all.cookie = 0xffff;
  catch_all.actions = {Action::output(kOutPort)};
  (void)table.apply(catch_all);
}

std::vector<pkt::FlowKey> make_flows(std::uint32_t count, Rng& rng) {
  std::vector<pkt::FlowKey> flows;
  flows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    pkt::FlowKey key;
    key.in_port = static_cast<PortId>(1 + rng.next_below(6));
    key.ether_type = pkt::kEtherTypeIpv4;
    key.ip_proto = rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp;
    key.src_ip = 0xc0a80000u + static_cast<std::uint32_t>(i);
    key.dst_ip =
        0x0a000000u + static_cast<std::uint32_t>(rng.next() & 0x0003ffff);
    key.src_port = static_cast<std::uint16_t>(1024 + (i & 0x3fff));
    key.dst_port = static_cast<std::uint16_t>(
        rng.chance(1, 2) ? 80 + rng.next_below(8) : 5000 + rng.next_below(8));
    flows.push_back(key);
  }
  return flows;
}

struct Row {
  std::uint32_t flows = 0;
  std::uint32_t masks = 0;
  double cyc[kModeCount] = {0, 0, 0, 0};  ///< cycles/lookup per Mode
  double mf_hit_rate = 0;                    ///< sig+batch mode
  std::uint64_t sig_fp = 0;
  std::uint64_t skipped = 0;     ///< subtables skipped (simd+pf mode)
  std::uint64_t simd_blocks = 0; ///< SIMD blocks scanned (sig-simd mode)
  std::size_t subtables = 0;
  std::size_t entries = 0;
};
std::vector<Row> g_rows;

Row& row_for(std::uint32_t flows, std::uint32_t masks) {
  for (Row& row : g_rows) {
    if (row.flows == flows && row.masks == masks) return row;
  }
  g_rows.push_back(Row{.flows = flows, .masks = masks});
  return g_rows.back();
}

DpClassifierConfig mode_config(std::int64_t mode) {
  DpClassifierConfig config;
  config.emc_enabled = false;  // isolate the megaflow tier
  config.megaflow.sig_scan_mode =
      mode == kSigScalar ? SigScanMode::kScalar : SigScanMode::kAuto;
  config.megaflow.subtable_prefilter =
      mode == kSimdPrefilter || mode == kSigBatch;
  return config;
}

void BM_Signature(benchmark::State& state) {
  const auto flow_count = static_cast<std::uint32_t>(state.range(0));
  const auto mask_diversity = static_cast<std::uint32_t>(state.range(1));
  const auto mode = state.range(2);

  exec::CostModel cost;
  FlowTable table;
  install_rules(table, mask_diversity);
  Rng rng(0x51f0a7e5u ^ flow_count ^ (mask_diversity << 20));
  const std::vector<pkt::FlowKey> flows = make_flows(flow_count, rng);
  std::vector<std::uint32_t> hashes;
  hashes.reserve(flows.size());
  for (const pkt::FlowKey& key : flows) {
    hashes.push_back(pkt::flow_key_hash(key));
  }

  const DpClassifierConfig config = mode_config(mode);

  double cycles_per_lookup = 0;
  TierCounters tiers;
  std::size_t subtables = 0;
  std::size_t entries = 0;
  for (auto _ : state) {
    DpClassifier dp(table, cost, config);
    exec::CycleMeter warm;
    // Warm the megaflow tier with one full pass over the flow population.
    for (std::size_t i = 0; i < flows.size(); ++i) {
      benchmark::DoNotOptimize(dp.lookup(flows[i], hashes[i], warm));
    }
    exec::CycleMeter meter;
    const TierCounters before = dp.counters();
    if (mode == kSigBatch) {
      std::vector<LookupOutcome> outcomes(kBatch);
      std::vector<pkt::FlowKey> keys(kBatch);
      std::vector<std::uint32_t> key_hashes(kBatch);
      for (std::uint64_t i = 0; i < g_lookups; i += kBatch) {
        for (std::size_t j = 0; j < kBatch; ++j) {
          const std::size_t f =
              static_cast<std::size_t>((i + j) % flows.size());
          keys[j] = flows[f];
          key_hashes[j] = hashes[f];
        }
        dp.lookup_batch(keys, key_hashes, outcomes, meter);
        benchmark::DoNotOptimize(outcomes.data());
      }
    } else {
      for (std::uint64_t i = 0; i < g_lookups; ++i) {
        const std::size_t f = static_cast<std::size_t>(i % flows.size());
        benchmark::DoNotOptimize(dp.lookup(flows[f], hashes[f], meter));
      }
    }
    cycles_per_lookup = static_cast<double>(meter.total_used()) /
                        static_cast<double>(g_lookups);
    tiers = dp.counters() - before;
    subtables = dp.megaflow().subtable_count();
    entries = dp.megaflow().entry_count();
    state.SetIterationTime(static_cast<double>(meter.total_used()) *
                           cost.ns_per_cycle() / 1e9);
  }

  state.counters["cyc_per_pkt"] = cycles_per_lookup;
  state.counters["Mpps_equiv"] =
      cycles_per_lookup > 0
          ? static_cast<double>(cost.hz) / cycles_per_lookup / 1e6
          : 0;
  state.counters["mf_hits"] = static_cast<double>(tiers.megaflow_hits);
  state.counters["sig_fp"] = static_cast<double>(tiers.sig_false_positives);
  state.counters["subt_skipped"] = static_cast<double>(tiers.subtables_skipped);
  state.counters["simd_blocks"] = static_cast<double>(tiers.simd_blocks);
  state.counters["subtables"] = static_cast<double>(subtables);
  state.counters["entries_per_subtable"] =
      subtables > 0 ? static_cast<double>(entries) /
                          static_cast<double>(subtables)
                    : 0;

  Row& row = row_for(flow_count, mask_diversity);
  row.cyc[mode] = cycles_per_lookup;
  if (mode == kSigSimd) row.simd_blocks = tiers.simd_blocks;
  if (mode == kSimdPrefilter) row.skipped = tiers.subtables_skipped;
  if (mode == kSigBatch) {
    row.mf_hit_rate = static_cast<double>(tiers.megaflow_hits) /
                      static_cast<double>(g_lookups);
    row.sig_fp = tiers.sig_false_positives;
    row.subtables = subtables;
    row.entries = entries;
  }
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
      g_smoke ? std::vector<std::int64_t>{4096}
              : std::vector<std::int64_t>{1024, 4096, 16384};
  const std::vector<std::int64_t> mask_counts =
      g_smoke ? std::vector<std::int64_t>{8}
              : std::vector<std::int64_t>{1, 4, 8};
  auto* bench = benchmark::RegisterBenchmark("BM_Signature", BM_Signature);
  bench->ArgNames({"flows", "masks", "mode"});
  for (const std::int64_t flows : flow_counts) {
    for (const std::int64_t masks : mask_counts) {
      for (std::int64_t mode = 0; mode < kModeCount; ++mode) {
        bench->Args({flows, masks, mode});
      }
    }
  }
  bench->Iterations(1)->UseManualTime()->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf(
      "\n=== A9: signature scan ladder (%s backend), cycles/packet "
      "(%llu lookups, %u rules, EMC off) ===\n",
      hw::simd::kBackendName, static_cast<unsigned long long>(g_lookups),
      kRuleCount + 1);
  std::printf(
      "%-7s %-5s %-10s %-10s %-10s %-10s | %-9s %-9s %-9s | %-8s %-9s\n",
      "flows", "masks", kModeNames[0], kModeNames[1], kModeNames[2],
      kModeNames[3], "simd_gain", "pf_gain", "full_gain", "mf_hit%",
      "skips");
  double worst_full_gain = -1;
  double worst_simd_gain = -1;
  for (const auto& row : g_rows) {
    const double simd_gain = row.cyc[kSigSimd] > 0
                                 ? row.cyc[kSigScalar] / row.cyc[kSigSimd]
                                 : 0;
    const double pf_gain = row.cyc[kSimdPrefilter] > 0
                               ? row.cyc[kSigSimd] / row.cyc[kSimdPrefilter]
                               : 0;
    const double full_gain =
        row.cyc[kSigBatch] > 0 ? row.cyc[kSigScalar] / row.cyc[kSigBatch]
                               : 0;
    std::printf(
        "%-7u %-5u %-10.1f %-10.1f %-10.1f %-10.1f | %-9.2f %-9.2f %-9.2f | "
        "%-8.1f %-9llu\n",
        row.flows, row.masks, row.cyc[kSigScalar], row.cyc[kSigSimd],
        row.cyc[kSimdPrefilter], row.cyc[kSigBatch], simd_gain, pf_gain,
        full_gain, 100.0 * row.mf_hit_rate,
        static_cast<unsigned long long>(row.skipped));
    // Acceptance scope: the EMC-thrashing, mask-diverse configurations.
    if (row.masks >= 8 && row.flows >= 4096) {
      if (worst_full_gain < 0 || full_gain < worst_full_gain) {
        worst_full_gain = full_gain;
      }
      if (worst_simd_gain < 0 || simd_gain < worst_simd_gain) {
        worst_simd_gain = simd_gain;
      }
    }
  }
  std::printf(
      "\nEach column adds one acceleration: sig-scalar scans one\n"
      "contiguous 16-bit signature array per probed subtable (portable\n"
      "loop); sig-simd scans the same array one 16-lane block compare at\n"
      "a time; simd+pf consults the subtable Bloom first and skips\n"
      "subtables that provably lack the key; sig+batch amortizes\n"
      "per-subtable dispatch across 32-packet batches. The gaps widen\n"
      "with entries/subtable — exactly the EMC-thrashing regime the delay\n"
      "models blame.\n");
  bool ok = true;
  if (worst_full_gain >= 0) {
    const bool pass = worst_full_gain >= 1.5;
    std::printf(
        "acceptance: sig+batch >= 1.5x sig-scalar on >=8 masks x >=4k "
        "flows: "
        "%.2fx -> %s\n",
        worst_full_gain, pass ? "PASS" : "FAIL");
    ok = ok && pass;
  }
  if (worst_simd_gain >= 0) {
    if (hw::simd::kSimdCompiledIn) {
      const bool pass = worst_simd_gain >= 1.5;
      std::printf(
          "acceptance: SIMD scan >= 1.5x scalar signature scan on >=8 masks "
          "x >=4k flows: %.2fx -> %s\n",
          worst_simd_gain, pass ? "PASS" : "FAIL");
      ok = ok && pass;
    } else {
      std::printf(
          "acceptance: SIMD-vs-scalar gate SKIPPED (no SIMD backend "
          "compiled in; sig-simd ran the portable loop)\n");
    }
  }
  return ok ? 0 : 1;
}
