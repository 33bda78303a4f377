/// \file bench_setup.cpp
/// Reproduces the paper's §3 setup-time claim: "the establishment of a
/// direct channel between two VMs, from the moment in which OvS recognizes
/// a p-2-p link, to the moment in which the PMD starts to use the bypass
/// channel, is on the order of 100 ms."
///
/// Method: a 2-VM chain is built with no steering rules; the benchmark
/// then installs the p-2-p FlowMod and measures, in virtual time, the
/// interval from FlowMod acceptance to (a) the bypass reported active and
/// (b) the first frame actually transmitted on the bypass channel. The
/// breakdown of the modeled QEMU/ivshmem/virtio-serial latencies is
/// printed alongside. A second scenario measures the *second* direction of
/// the same port pair, which skips the hot-plug (the region is already
/// mapped) but not its own request: the OVS->agent RTT plus the RX and TX
/// virtio-serial exchanges, 0.20 + 2 x 2.00 ms, reads 4.23 ms.

#include "bench_common.h"
#include "openflow/messages.h"

namespace hw::bench {
namespace {

struct SetupSample {
  TimeNs to_active_ns = 0;       ///< flowmod → manager reports ACTIVE
  TimeNs to_first_tx_ns = 0;     ///< flowmod → first frame on bypass
  TimeNs second_direction_ns = 0;///< reverse rule → reverse link ACTIVE
};

SetupSample measure_setup() {
  set_log_level(LogLevel::kError);
  chain::ChainConfig config;
  config.vm_count = 2;
  config.enable_bypass = true;
  // Build with rules, then remove them so the scenario starts bypassed-off
  // but fully booted; re-adding a rule measures pure setup latency.
  chain::ChainScenario scenario(config);
  if (!scenario.build().is_ok()) return {};
  (void)scenario.wait_bypass_ready();
  (void)scenario.remove_chain_rules();
  // Let the teardown complete and traffic drain.
  scenario.runtime().run_until(
      [&] { return scenario.of().bypass_manager().links().empty(); },
      500'000'000);

  const PortId from = scenario.right_port(0);
  const PortId to = scenario.left_port(1);
  auto& manager = scenario.of().bypass_manager();
  vm::Vm& vm0 = scenario.hypervisor().vm(0);
  pmd::GuestPmd* tx_pmd = vm0.pmd_for_port(from);
  const std::uint64_t tx_before = tx_pmd->counters().tx_bypass;

  SetupSample sample;
  const TimeNs t0 = scenario.runtime().now_ns();
  if (!scenario
           .send_flow_mod(openflow::make_p2p_flowmod(from, to, 100, 0xabc))
           .is_ok()) {
    return {};
  }
  if (!scenario.runtime().run_until(
          [&] { return manager.link_active(from, to); }, 1'000'000'000)) {
    return {};
  }
  sample.to_active_ns = scenario.runtime().now_ns() - t0;
  if (!scenario.runtime().run_until(
          [&] { return tx_pmd->counters().tx_bypass > tx_before; },
          100'000'000)) {
    return sample;
  }
  sample.to_first_tx_ns = scenario.runtime().now_ns() - t0;

  // Second direction: the channel region already exists and is plugged.
  const TimeNs t1 = scenario.runtime().now_ns();
  if (scenario.send_flow_mod(openflow::make_p2p_flowmod(to, from, 100, 0xabd))
          .is_ok() &&
      scenario.runtime().run_until(
          [&] { return manager.link_active(to, from); }, 1'000'000'000)) {
    sample.second_direction_ns = scenario.runtime().now_ns() - t1;
  }
  return sample;
}

SetupSample g_sample;

void BM_BypassSetup(benchmark::State& state) {
  for (auto _ : state) {
    g_sample = measure_setup();
    state.SetIterationTime(static_cast<double>(g_sample.to_first_tx_ns) /
                           1e9);
  }
  state.counters["to_active_ms"] =
      static_cast<double>(g_sample.to_active_ns) / 1e6;
  state.counters["to_first_tx_ms"] =
      static_cast<double>(g_sample.to_first_tx_ns) / 1e6;
  state.counters["second_dir_ms"] =
      static_cast<double>(g_sample.second_direction_ns) / 1e6;
}

BENCHMARK(BM_BypassSetup)->Iterations(1)->UseManualTime()->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace hw::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const hw::agent::HotplugLatencyModel model;
  std::printf("\n=== S3 setup-time claim: bypass establishment ===\n");
  std::printf("flowmod -> link ACTIVE        : %8.2f ms\n",
              static_cast<double>(hw::bench::g_sample.to_active_ns) / 1e6);
  std::printf("flowmod -> first bypassed TX  : %8.2f ms   (paper: ~100 ms)\n",
              static_cast<double>(hw::bench::g_sample.to_first_tx_ns) / 1e6);
  std::printf("second direction (no hot-plug): %8.2f ms\n",
              static_cast<double>(hw::bench::g_sample.second_direction_ns) /
                  1e6);
  std::printf("\nModeled latency components (per direction-1 setup):\n");
  std::printf("  OVS->agent socket RTT : %6.2f ms\n",
              static_cast<double>(model.request_rtt_ns) / 1e6);
  std::printf("  QEMU ivshmem plug x2  : %6.2f ms\n",
              2 * static_cast<double>(model.qemu_plug_ns) / 1e6);
  std::printf("  guest PCI rescan x2   : %6.2f ms\n",
              2 * static_cast<double>(model.pci_scan_ns) / 1e6);
  std::printf("  virtio-serial RTT x2  : %6.2f ms\n",
              2 * static_cast<double>(model.serial_rtt_ns) / 1e6);
  std::printf("  expected total        : %6.2f ms\n",
              static_cast<double>(model.expected_setup_ns()) / 1e6);
  return 0;
}
