#include "chain/chain.h"

#include "common/log.h"
#include "common/units.h"
#include "openflow/codec.h"

namespace hw::chain {

using openflow::FlowMod;

namespace {

/// The one mempool every port, ring and generator of a scenario draws from.
constexpr std::size_t kMempoolSize = 32 * 1024;
/// Metrics sampling period: 1 ms of virtual time.
constexpr TimeNs kSampleIntervalNs = 1'000'000;

}  // namespace

ChainScenario::ChainScenario(ChainConfig config)
    : config_(std::move(config)) {}

ChainScenario::~ChainScenario() = default;

pkt::TrafficProfile ChainScenario::profile_fwd() const {
  pkt::TrafficProfile profile;
  profile.frame_len = config_.frame_len;
  profile.flow_count = config_.flow_count;
  profile.src_ip_base = pkt::ipv4(10, 0, 0, 1);
  profile.dst_ip_base = pkt::ipv4(10, 1, 0, 1);
  profile.seed = 1;
  profile.workload = config_.workload;
  return profile;
}

pkt::TrafficProfile ChainScenario::profile_rev() const {
  pkt::TrafficProfile profile = profile_fwd();
  profile.src_ip_base = pkt::ipv4(10, 1, 0, 1);
  profile.dst_ip_base = pkt::ipv4(10, 0, 0, 1);
  profile.base_src_port = 5000;
  profile.base_dst_port = 6000;
  profile.seed = 2;
  return profile;
}

Status ChainScenario::build() {
  if (built_) return Status::failed_precondition("already built");
  if (config_.vm_count == 0) {
    return Status::invalid_argument("vm_count must be >= 1");
  }
  if (!config_.use_nics && config_.vm_count < 2) {
    return Status::invalid_argument(
        "memory-only chains need >= 2 VMs (source and sink)");
  }

  pool_ = std::make_unique<mbuf::Mempool>("mb0", kMempoolSize);
  runtime_ = std::make_unique<exec::SimRuntime>(
      exec::SimConfig{.epoch_ns = config_.epoch_ns, .cost = config_.cost});

  if (config_.telemetry.tracing) {
    tracer_ =
        std::make_unique<telemetry::Tracer>(config_.telemetry.trace_capacity);
    tracer_->set_enabled(true);
    tracer_->set_span_cost(config_.cost.trace_span);
  }

  of_ = std::make_unique<vswitch::OfSwitch>(
      shm_, *pool_, *runtime_, config_.cost,
      vswitch::SwitchConfig{.engine_count = config_.engine_count,
                            .rss = config_.rss,
                            .bypass_enabled = config_.enable_bypass,
                            .tracer = tracer_.get()});
  agent_ = std::make_unique<agent::ComputeAgent>(shm_, *runtime_,
                                                 config_.hotplug);
  agent_->set_event_sink(&of_->bypass_manager());
  of_->bypass_manager().set_agent(agent_.get());
  hypervisor_ =
      std::make_unique<vm::Hypervisor>(shm_, *agent_, config_.cost);

  // --- NICs (Figure 3b) -------------------------------------------------
  if (config_.use_nics) {
    const nic::NicConfig nic_config{};
    nic1_ = std::make_unique<nic::SimNic>("nic0", nic_config, *runtime_,
                                          config_.cost, *pool_, profile_fwd());
    nic2_ = std::make_unique<nic::SimNic>(
        "nic1", nic_config, *runtime_, config_.cost, *pool_, profile_rev(),
        /*generate=*/config_.bidirectional);
    head_ = &nic1_->endpoint();
    tail_ = &nic2_->endpoint();
    auto phy1 = of_->add_phy_port("phy0", *nic1_);
    if (!phy1.is_ok()) return phy1.status();
    phy1_ = phy1.value();
  }

  // --- VMs and dpdkr ports ----------------------------------------------
  for (std::uint32_t i = 0; i < config_.vm_count; ++i) {
    const std::string vm_name = "vm" + std::to_string(i);
    vm::Vm& guest = hypervisor_->create_vm(vm_name);

    auto left = of_->add_dpdkr_port(vm_name + ".l");
    if (!left.is_ok()) return left.status();
    auto right = of_->add_dpdkr_port(vm_name + ".r");
    if (!right.is_ok()) return right.status();
    left_ports_.push_back(left.value());
    right_ports_.push_back(right.value());

    HW_RETURN_IF_ERROR(hypervisor_->attach_port(guest, left.value()));
    HW_RETURN_IF_ERROR(hypervisor_->attach_port(guest, right.value()));
  }

  if (config_.use_nics) {
    auto phy2 = of_->add_phy_port("phy1", *nic2_);
    if (!phy2.is_ok()) return phy2.status();
    phy2_ = phy2.value();
  }

  // --- guest applications -------------------------------------------------
  const std::uint32_t n = config_.vm_count;
  for (std::uint32_t i = 0; i < n; ++i) {
    vm::Vm& guest = hypervisor_->vm(i);
    pmd::GuestPmd* left = guest.pmd_for_port(left_ports_[i]);
    pmd::GuestPmd* right = guest.pmd_for_port(right_ports_[i]);
    const std::string app_name = "app.vm" + std::to_string(i);

    if (!config_.use_nics && i == 0) {
      auto app = std::make_unique<vm::GenSinkApp>(
          app_name, *right, *pool_, profile_fwd(), *runtime_, config_.cost,
          /*generate=*/true, kBurstSize, config_.gen_rate_pps);
      head_app_ = app.get();
      head_ = &app->endpoint();
      apps_.push_back(std::move(app));
    } else if (!config_.use_nics && i == n - 1) {
      auto app = std::make_unique<vm::GenSinkApp>(
          app_name, *left, *pool_, profile_rev(), *runtime_, config_.cost,
          /*generate=*/config_.bidirectional, kBurstSize,
          config_.gen_rate_pps);
      tail_app_ = app.get();
      tail_ = &app->endpoint();
      apps_.push_back(std::move(app));
    } else {
      apps_.push_back(std::make_unique<vm::ForwarderApp>(
          app_name, *left, *right, *pool_, config_.cost));
    }
  }

  // --- register contexts (execution order within an epoch) ---------------
  if (nic1_) runtime_->add_context(nic1_.get());
  for (exec::Context* engine : of_->engine_contexts()) {
    runtime_->add_context(engine);
  }
  for (auto& app : apps_) runtime_->add_context(app.get());
  if (nic2_) runtime_->add_context(nic2_.get());
  runtime_->add_context(agent_.get());

  HW_RETURN_IF_ERROR(install_chain_rules());
  wire_telemetry();
  built_ = true;
  return Status::ok();
}

void ChainScenario::wire_telemetry() {
  if (config_.telemetry.int_stamping) {
    // Every dpdkr PMD stamps and completes hop records; the endpoint
    // sinks aggregate the trailers they receive.
    for (std::uint32_t i = 0; i < config_.vm_count; ++i) {
      vm::Vm& guest = hypervisor_->vm(i);
      guest.pmd_for_port(left_ports_[i])->configure_int(runtime_.get());
      guest.pmd_for_port(right_ports_[i])->configure_int(runtime_.get());
    }
    if (head_app_ != nullptr) head_app_->set_collect_int(true);
    if (tail_app_ != nullptr) tail_app_->set_collect_int(true);
  }

  if (!config_.telemetry.metrics) return;
  metrics_ = std::make_unique<telemetry::MetricsRegistry>();

  metrics_->gauge("chain.bypass_links").set_callback([this] {
    return static_cast<double>(of_->bypass_manager().active_links());
  });
  metrics_->gauge("chain.mempool_in_use").set_callback([this] {
    return static_cast<double>(pool_->in_use());
  });
  metrics_->gauge("chain.delivered_pkts").set_callback([this] {
    return static_cast<double>(head_->counters().delivered +
                               tail_->counters().delivered);
  });
  classifier::register_hit_rate_gauges(
      *metrics_, [this] { return of_->datapath_stats(); });

  // Offered-load shape (docs/WORKLOADS.md): a bench starving its own
  // generators or a churn model collapsing the population shows up in
  // the sampled series instead of silently under-offering load.
  metrics_->gauge("gen.active_flows").set_callback([this] {
    return static_cast<double>(offered_stats().active_flows);
  });
  metrics_->gauge("gen.alloc_failures").set_callback([this] {
    return static_cast<double>(total_gen_alloc_failures());
  });

  sampler_ = std::make_unique<telemetry::MetricsSampler>(*metrics_);
  sampler_->start(*runtime_, kSampleIntervalNs);
}

pkt::WorkloadStats ChainScenario::offered_stats() const {
  pkt::WorkloadStats total;
  for (const pkt::Endpoint* endpoint : {head_, tail_}) {
    const pkt::WorkloadStats& s = endpoint->workload_stats();
    total.offered += s.offered;
    total.active_flows += s.active_flows;
    total.flow_arrivals += s.flow_arrivals;
    total.flow_departures += s.flow_departures;
    total.distinct_flows += s.distinct_flows;
  }
  return total;
}

std::uint64_t ChainScenario::total_gen_alloc_failures() const {
  return head_->counters().alloc_failures + tail_->counters().alloc_failures;
}

std::string ChainScenario::export_trace_json() const {
  if (!tracer_) return {};
  return tracer_->export_chrome_json(0, runtime_->elapsed_ns());
}

std::string ChainScenario::export_metrics_csv() const {
  return sampler_ ? sampler_->export_csv() : std::string{};
}

std::string ChainScenario::export_metrics_prometheus() const {
  return metrics_ ? metrics_->export_prometheus() : std::string{};
}

Status ChainScenario::send_flow_mod(const FlowMod& mod) {
  const auto bytes = openflow::encode_flow_mod(mod, 0);
  auto reply = of_->handle_message(bytes);
  return reply.status();
}

Status ChainScenario::install_chain_rules() {
  const std::uint32_t n = config_.vm_count;
  // Inter-VM p-2-p links: R_i → L_{i+1} and back.
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    HW_RETURN_IF_ERROR(send_flow_mod(openflow::make_p2p_flowmod(
        right_ports_[i], left_ports_[i + 1], 100, next_cookie_++)));
    HW_RETURN_IF_ERROR(send_flow_mod(openflow::make_p2p_flowmod(
        left_ports_[i + 1], right_ports_[i], 100, next_cookie_++)));
  }
  // NIC edges (never bypassed: phy ports are not dpdkr).
  if (config_.use_nics) {
    HW_RETURN_IF_ERROR(send_flow_mod(openflow::make_p2p_flowmod(
        phy1_, left_ports_[0], 100, next_cookie_++)));
    HW_RETURN_IF_ERROR(send_flow_mod(openflow::make_p2p_flowmod(
        left_ports_[0], phy1_, 100, next_cookie_++)));
    HW_RETURN_IF_ERROR(send_flow_mod(openflow::make_p2p_flowmod(
        right_ports_[n - 1], phy2_, 100, next_cookie_++)));
    HW_RETURN_IF_ERROR(send_flow_mod(openflow::make_p2p_flowmod(
        phy2_, right_ports_[n - 1], 100, next_cookie_++)));
  }
  return Status::ok();
}

Status ChainScenario::remove_chain_rules() {
  FlowMod mod;
  mod.command = openflow::FlowModCommand::kDelete;
  mod.match = openflow::Match{};  // wildcard: delete everything
  return send_flow_mod(mod);
}

std::size_t ChainScenario::expected_links() const noexcept {
  if (!config_.enable_bypass || config_.vm_count < 2) return 0;
  return 2 * (config_.vm_count - 1);
}

bool ChainScenario::wait_bypass_ready(TimeNs max_ns) {
  const std::size_t expected = expected_links();
  if (expected == 0) return true;
  return runtime_->run_until(
      [&] { return of_->bypass_manager().active_links() >= expected; },
      max_ns);
}

ChainScenario::Totals ChainScenario::totals() const {
  Totals t;
  t.time_ns = runtime_->elapsed_ns();
  t.delivered_fwd = tail_->counters().delivered;
  t.delivered_rev = head_->counters().delivered;
  for (const auto& engine : of_->engines()) {
    const vswitch::EngineCounters& c = engine->counters();
    t.switch_rx += c.rx_packets;
    t.drops += c.tx_ring_full + c.misses + c.action_drops + c.rss_queue_drops;
    t.rss_distributed += c.rss_distributed;
    t.rss_queue_drops += c.rss_queue_drops;
  }
  if (nic1_) t.drops += nic1_->counters().rx_missed;
  if (nic2_) t.drops += nic2_->counters().rx_missed;
  t.tiers = of_->datapath_stats();
  t.rss = of_->rss_stats();
  t.offered = offered_stats();
  t.gen_alloc_failures = total_gen_alloc_failures();
  for (const auto& report : runtime_->reports()) {
    if (report.name.rfind("pmd", 0) == 0) {
      t.engine_busy.push_back(report.busy_cycles);
    }
  }
  return t;
}

ChainMetrics ChainScenario::measure(TimeNs duration_ns) {
  const Totals start = totals();
  head_->reset_latency();
  tail_->reset_latency();
  runtime_->run_for(duration_ns);
  const Totals end = totals();

  ChainMetrics metrics;
  metrics.duration_ns = end.time_ns - start.time_ns;

  metrics.delivered_fwd = end.delivered_fwd - start.delivered_fwd;
  metrics.delivered_rev = end.delivered_rev - start.delivered_rev;
  metrics.mpps_fwd = to_mpps(metrics.delivered_fwd, metrics.duration_ns);
  metrics.mpps_rev = to_mpps(metrics.delivered_rev, metrics.duration_ns);
  metrics.mpps_total = metrics.mpps_fwd + metrics.mpps_rev;

  LatencyRecorder latency;
  latency.merge(head_->latency());
  latency.merge(tail_->latency());
  metrics.latency_mean_ns = latency.mean();
  metrics.latency_p50_ns = latency.quantile(0.50);
  metrics.latency_p99_ns = latency.quantile(0.99);
  metrics.latency_max_ns = latency.max();

  metrics.switch_rx_packets = end.switch_rx - start.switch_rx;
  metrics.drops = end.drops - start.drops;
  metrics.bypass_links = of_->bypass_manager().active_links();
  metrics.tiers = end.tiers - start.tiers;

  metrics.rss_distributed = end.rss_distributed - start.rss_distributed;
  metrics.rss_queue_drops = end.rss_queue_drops - start.rss_queue_drops;
  metrics.rebalance_checks =
      end.rss.rebalance_checks - start.rss.rebalance_checks;
  metrics.bucket_migrations =
      end.rss.bucket_migrations - start.rss.bucket_migrations;

  metrics.offered_active_flows = end.offered.active_flows;
  metrics.offered_arrivals =
      end.offered.flow_arrivals - start.offered.flow_arrivals;
  metrics.offered_departures =
      end.offered.flow_departures - start.offered.flow_departures;
  metrics.gen_alloc_failures =
      end.gen_alloc_failures - start.gen_alloc_failures;
  // Top-k share of the forward-direction generator (the shares of the
  // two directions are statistically identical by construction).
  metrics.offered_top16_share = head_->top_share(16);

  const double window_cycles = static_cast<double>(metrics.duration_ns) *
                               static_cast<double>(config_.cost.hz) / 1e9;
  for (std::size_t i = 0; i < end.engine_busy.size(); ++i) {
    const Cycles prev =
        i < start.engine_busy.size() ? start.engine_busy[i] : 0;
    const double util =
        window_cycles > 0
            ? static_cast<double>(end.engine_busy[i] - prev) / window_cycles
            : 0.0;
    metrics.max_engine_utilization =
        std::max(metrics.max_engine_utilization, util);
  }
  return metrics;
}

bool ChainScenario::drain(TimeNs max_ns) {
  for (pkt::Endpoint* endpoint : {head_, tail_}) endpoint->set_generate(false);
  return runtime_->run_until([&] { return pool_->in_use() == 0; }, max_ns);
}

}  // namespace hw::chain
