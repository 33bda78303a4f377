#pragma once

#include <memory>
#include <string>
#include <vector>

#include "agent/compute_agent.h"
#include "common/latency.h"
#include "common/status.h"
#include "exec/runtime.h"
#include "mbuf/mempool.h"
#include "nic/sim_nic.h"
#include "pkt/endpoint.h"
#include "pkt/traffic_profile.h"
#include "shm/shm.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "vm/apps.h"
#include "vm/vm.h"
#include "vswitch/of_switch.h"

/// \file chain.h
/// End-to-end scenario builder: the service-chain topology of the paper's
/// evaluation (§3). A chain of `vm_count` VMs, each with two dpdkr ports
/// and a single-core forwarder, connected by p-2-p OpenFlow rules; traffic
/// is bidirectional 64 B frames, either memory-only (first/last VM act as
/// source/sink — Figure 3a) or delivered through two simulated 10 G NICs
/// (Figure 3b). `enable_bypass` switches between "our approach" and
/// vanilla OVS-DPDK.
///
/// All control traffic (FlowMods) goes through the OpenFlow wire codec, so
/// every scenario also exercises the controller-transparency path.

namespace hw::chain {

struct ChainConfig {
  std::uint32_t vm_count = 2;
  bool use_nics = false;        ///< Figure 3(b) vs Figure 3(a)
  bool enable_bypass = true;    ///< our approach vs vanilla OVS-DPDK
  bool bidirectional = true;

  std::uint32_t engine_count = 1;  ///< switch PMD cores
  /// RSS-style rx sharding across the engine pool (multi-queue rx): each
  /// port's home engine distributes frames by 5-tuple hash so one port's
  /// flows spread over many engines. Ignored when engine_count <= 1.
  vswitch::RssConfig rss{};

  std::uint32_t frame_len = 64;
  std::uint32_t flow_count = 8;
  /// Offered-load shape for every generator in the scenario: flow
  /// popularity distribution, churn model, mice/elephants mix (see
  /// docs/WORKLOADS.md). Defaults to the legacy round-robin sweep.
  pkt::WorkloadConfig workload{};
  /// 0 = generate at core speed (saturation). Nonzero paces each
  /// memory-only endpoint generator (per direction) — used by the latency
  /// experiment to measure below saturation.
  std::uint64_t gen_rate_pps = 0;

  TimeNs epoch_ns = 1000;
  exec::CostModel cost{};
  agent::HotplugLatencyModel hotplug{};

  /// Observability (docs/OBSERVABILITY.md). Everything defaults OFF, in
  /// which case the scenario runs the exact pre-telemetry schedule.
  telemetry::TelemetryConfig telemetry{};
};

struct ChainMetrics {
  TimeNs duration_ns = 0;
  std::uint64_t delivered_fwd = 0;
  std::uint64_t delivered_rev = 0;
  double mpps_total = 0;
  double mpps_fwd = 0;
  double mpps_rev = 0;
  double latency_mean_ns = 0;
  TimeNs latency_p50_ns = 0;
  TimeNs latency_p99_ns = 0;
  TimeNs latency_max_ns = 0;
  std::uint64_t switch_rx_packets = 0;  ///< frames the engines forwarded
  std::uint64_t drops = 0;              ///< NIC missed + app/engine drops
  std::size_t bypass_links = 0;
  double max_engine_utilization = 0;
  /// Tier counters over the measurement window, summed across engines —
  /// shows *where* switched packets resolved.
  classifier::TierCounters tiers;
  // RSS scale-out telemetry (see docs/SCALEOUT.md): zeros unless rss is
  // enabled on a multi-engine pool.
  std::uint64_t rss_distributed = 0;   ///< frames hashed + steered by homes
  std::uint64_t rss_queue_drops = 0;   ///< steered frames full queues dropped
  std::uint64_t rebalance_checks = 0;  ///< auto-lb EWMA windows evaluated
  std::uint64_t bucket_migrations = 0; ///< auto-lb bucket handoffs
  // Offered-load shape from the workload engines, summed over the
  // scenario's generators (see docs/WORKLOADS.md).
  std::uint64_t offered_active_flows = 0;  ///< live population at window end
  std::uint64_t offered_arrivals = 0;      ///< flows admitted in the window
  std::uint64_t offered_departures = 0;    ///< flows retired in the window
  double offered_top16_share = 0;  ///< load share of the ~16 hottest flows
  std::uint64_t gen_alloc_failures = 0;  ///< generators starved by the pool
};

class ChainScenario {
 public:
  explicit ChainScenario(ChainConfig config);
  ~ChainScenario();

  ChainScenario(const ChainScenario&) = delete;
  ChainScenario& operator=(const ChainScenario&) = delete;

  /// Constructs the host, switch, VMs, NICs and installs the steering
  /// rules (through the OpenFlow codec).
  [[nodiscard]] Status build();

  /// Directed p-2-p links the detector should find for this topology.
  [[nodiscard]] std::size_t expected_links() const noexcept;

  /// Runs until every expected bypass is active (no-op when bypass is
  /// disabled). Returns false on timeout.
  bool wait_bypass_ready(TimeNs max_ns = 400'000'000);

  void warmup(TimeNs duration_ns) { runtime_->run_for(duration_ns); }

  /// Measures a window of `duration_ns` virtual time.
  ChainMetrics measure(TimeNs duration_ns);

  /// Stops generators and lets in-flight traffic drain; returns true when
  /// the mempool returned to empty (conservation check).
  bool drain(TimeNs max_ns = 50'000'000);

  // ------------------------------------------------------------ access
  [[nodiscard]] exec::SimRuntime& runtime() noexcept { return *runtime_; }
  [[nodiscard]] vswitch::OfSwitch& of() noexcept { return *of_; }
  [[nodiscard]] agent::ComputeAgent& agent() noexcept { return *agent_; }
  [[nodiscard]] mbuf::Mempool& pool() noexcept { return *pool_; }
  [[nodiscard]] shm::ShmManager& shm() noexcept { return shm_; }
  [[nodiscard]] vm::Hypervisor& hypervisor() noexcept { return *hypervisor_; }

  [[nodiscard]] PortId left_port(std::size_t vm) const {
    return left_ports_[vm];
  }
  [[nodiscard]] PortId right_port(std::size_t vm) const {
    return right_ports_[vm];
  }
  [[nodiscard]] PortId phy_in() const noexcept { return phy1_; }
  [[nodiscard]] PortId phy_out() const noexcept { return phy2_; }

  /// The end VMs' apps of a memory-only chain; null when NICs feed it.
  [[nodiscard]] vm::GenSinkApp* head_endpoint() noexcept { return head_app_; }
  [[nodiscard]] vm::GenSinkApp* tail_endpoint() noexcept { return tail_app_; }

  /// Sends a FlowMod through the wire codec (the way every rule in this
  /// scenario is installed).
  [[nodiscard]] Status send_flow_mod(const openflow::FlowMod& mod);

  /// Installs / removes the chain steering rules (used by dynamic
  /// reconfiguration tests and the setup-time benchmark).
  [[nodiscard]] Status install_chain_rules();
  [[nodiscard]] Status remove_chain_rules();

  // ------------------------------------------------------- observability
  /// Null unless the corresponding TelemetryConfig feature is enabled.
  [[nodiscard]] telemetry::Tracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] telemetry::MetricsRegistry* metrics() noexcept {
    return metrics_.get();
  }
  [[nodiscard]] telemetry::MetricsSampler* sampler() noexcept {
    return sampler_.get();
  }

  /// chrome://tracing JSON of everything recorded so far (empty string
  /// when tracing is off). Run bounds are [0, elapsed_ns()].
  [[nodiscard]] std::string export_trace_json() const;
  /// Sampled metric time series as CSV / current values in Prometheus
  /// text format (empty string when metrics are off).
  [[nodiscard]] std::string export_metrics_csv() const;
  [[nodiscard]] std::string export_metrics_prometheus() const;

 private:
  [[nodiscard]] pkt::TrafficProfile profile_fwd() const;
  [[nodiscard]] pkt::TrafficProfile profile_rev() const;
  /// Sums WorkloadStats over both endpoints.
  [[nodiscard]] pkt::WorkloadStats offered_stats() const;
  [[nodiscard]] std::uint64_t total_gen_alloc_failures() const;

  /// Every cumulative total a measurement window reports, read at one
  /// instant: measure() subtracts the totals at its start from those at
  /// its end.
  struct Totals {
    TimeNs time_ns = 0;
    std::uint64_t delivered_fwd = 0;  ///< sunk by the tail
    std::uint64_t delivered_rev = 0;  ///< sunk by the head
    std::uint64_t switch_rx = 0;
    std::uint64_t drops = 0;  ///< engine drops + NIC rx_missed
    classifier::TierCounters tiers;
    std::uint64_t rss_distributed = 0;
    std::uint64_t rss_queue_drops = 0;
    vswitch::RssStats rss;
    pkt::WorkloadStats offered;
    std::uint64_t gen_alloc_failures = 0;
    std::vector<Cycles> engine_busy;  ///< per engine, runtime report order
  };
  [[nodiscard]] Totals totals() const;

  void wire_telemetry();

  ChainConfig config_;
  shm::ShmManager shm_;
  // Telemetry objects are declared before runtime_: the sampler's
  // rescheduling lambda lives in the runtime event queue and must outlive
  // it (members destruct in reverse declaration order).
  std::unique_ptr<telemetry::Tracer> tracer_;
  std::unique_ptr<telemetry::MetricsRegistry> metrics_;
  std::unique_ptr<telemetry::MetricsSampler> sampler_;
  std::unique_ptr<mbuf::Mempool> pool_;
  std::unique_ptr<exec::SimRuntime> runtime_;
  std::unique_ptr<vswitch::OfSwitch> of_;
  std::unique_ptr<agent::ComputeAgent> agent_;
  std::unique_ptr<vm::Hypervisor> hypervisor_;

  std::unique_ptr<nic::SimNic> nic1_;
  std::unique_ptr<nic::SimNic> nic2_;

  std::vector<std::unique_ptr<exec::Context>> apps_;
  vm::GenSinkApp* head_app_ = nullptr;  // memory-only chains
  vm::GenSinkApp* tail_app_ = nullptr;
  // The two traffic endpoints, behind nic1/nic2 or inside the end VMs'
  // apps: the head generates forward traffic and sinks the reverse, the
  // tail the opposite.
  pkt::Endpoint* head_ = nullptr;
  pkt::Endpoint* tail_ = nullptr;

  std::vector<PortId> left_ports_;
  std::vector<PortId> right_ports_;
  PortId phy1_ = 0;
  PortId phy2_ = 0;
  Cookie next_cookie_ = 1;
  bool built_ = false;
};

}  // namespace hw::chain
