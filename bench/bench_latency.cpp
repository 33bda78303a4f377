/// \file bench_latency.cpp
/// Reproduces the paper's §3 latency claim: "Our prototype brings also
/// advantages in terms of latency, especially with long chains (in case of
/// 8 VMs, we get an improvement of 80%)".
///
/// Method: same memory-only chains as Figure 3(a), under the same loaded
/// conditions as the throughput runs (sources at core speed). Every
/// generated frame carries its creation timestamp; sinks record one-way
/// latency. The improvement grows with chain length and lands in the
/// paper's "~80% at 8 VMs" regime.
///
/// What a row measures: with the sources at core speed, every chain runs
/// with its first ring full, so a row's latency is that ring's fill time
/// (frames in flight over throughput), not the path's delay. At 4 VMs
/// the traditional mean, 268.6 us at 4.048 Mpps per direction, is ~1,087
/// frames in flight: one full 1024-slot ring plus two bursts. The last
/// run of the retired ring ablation (A1, 4 VMs) read a traditional mean
/// of 268.6, 521.4 and 1027 us at 1024, 2048 and 4096 slots, all at the
/// same rate: the latency scales with the ring. The "~80%" row
/// therefore compares ring-fill times. To measure the path itself, pace
/// the sources below saturation with ChainConfig::gen_rate_pps, as
/// TransparencyTest.IntHopStampsProveBypassedHopIsFree does.

#include "bench_common.h"

namespace hw::bench {
namespace {

SeriesTable g_table;

constexpr TimeNs kWarmupNs = 3'000'000;
constexpr TimeNs kMeasureNs = 10'000'000;

chain::ChainConfig latency_config(std::uint32_t vm_count, bool bypass) {
  chain::ChainConfig config;
  config.vm_count = vm_count;
  config.use_nics = false;
  config.bidirectional = true;
  config.enable_bypass = bypass;
  config.engine_count = 1;
  config.frame_len = 64;
  config.hotplug = fast_hotplug();
  return config;
}

void BM_Latency(benchmark::State& state) {
  const auto vm_count = static_cast<std::uint32_t>(state.range(0));
  const bool bypass = state.range(1) != 0;
  chain::ChainMetrics metrics;
  for (auto _ : state) {
    metrics = run_chain_point(latency_config(vm_count, bypass), kWarmupNs,
                              kMeasureNs);
    state.SetIterationTime(static_cast<double>(metrics.duration_ns) / 1e9);
  }
  export_counters(state, metrics);
  g_table.add(vm_count, bypass, metrics);
}

BENCHMARK(BM_Latency)
    ->ArgNames({"vms", "bypass"})
    ->ArgsProduct({{2, 4, 6, 8}, {0, 1}})
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hw::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  hw::bench::g_table.print_latency(
      "S3 latency claim: one-way latency, memory-only chains");
  return 0;
}
