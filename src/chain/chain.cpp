#include "chain/chain.h"

#include "common/log.h"
#include "common/units.h"
#include "openflow/codec.h"

namespace hw::chain {

using openflow::FlowMod;

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

  pool_ = std::make_unique<mbuf::Mempool>("mb0", config_.mempool_size);
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
      vswitch::SwitchConfig{.ring_capacity = config_.ring_capacity,
                            .burst = config_.burst,
                            .emc_enabled = config_.emc_enabled,
                            .megaflow_enabled = config_.megaflow_enabled,
                            .megaflow_auto_size = config_.megaflow_auto_size,
                            .sig_scan_mode = config_.sig_scan_mode,
                            .subtable_prefilter = config_.subtable_prefilter,
                            .engine_count = config_.engine_count,
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
    const nic::NicConfig nic_config{.bits_per_sec = config_.nic_bps,
                                    .ring_capacity = config_.ring_capacity,
                                    .burst = config_.burst};
    nic1_ = std::make_unique<nic::SimNic>("nic0", nic_config, *runtime_,
                                          config_.cost, *pool_);
    nic2_ = std::make_unique<nic::SimNic>("nic1", nic_config, *runtime_,
                                          config_.cost, *pool_);
    src_fwd_ = std::make_unique<nic::TrafficSource>("gen.fwd", *pool_,
                                                    profile_fwd(), *runtime_);
    sink_fwd_ = std::make_unique<nic::TrafficSink>("sink.fwd", *pool_,
                                                   *runtime_);
    nic1_->attach_source(src_fwd_.get());
    nic2_->attach_sink(sink_fwd_.get());
    if (config_.bidirectional) {
      src_rev_ = std::make_unique<nic::TrafficSource>(
          "gen.rev", *pool_, profile_rev(), *runtime_);
      sink_rev_ = std::make_unique<nic::TrafficSink>("sink.rev", *pool_,
                                                     *runtime_);
      nic2_->attach_source(src_rev_.get());
      nic1_->attach_sink(sink_rev_.get());
    }
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
          /*generate=*/true, config_.burst, config_.gen_rate_pps);
      head_ = app.get();
      apps_.push_back(std::move(app));
    } else if (!config_.use_nics && i == n - 1) {
      auto app = std::make_unique<vm::GenSinkApp>(
          app_name, *left, *pool_, profile_rev(), *runtime_, config_.cost,
          /*generate=*/config_.bidirectional, config_.burst,
          config_.gen_rate_pps);
      tail_ = app.get();
      apps_.push_back(std::move(app));
    } else {
      apps_.push_back(std::make_unique<vm::ForwarderApp>(
          app_name, *left, *right, *pool_, config_.cost,
          config_.vm_extra_cycles, config_.burst));
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
    if (head_ != nullptr) head_->set_collect_int(true);
    if (tail_ != nullptr) tail_->set_collect_int(true);
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
    std::uint64_t total = 0;
    if (config_.use_nics) {
      if (sink_fwd_) total += sink_fwd_->received();
      if (sink_rev_) total += sink_rev_->received();
    } else {
      if (head_ != nullptr) total += head_->counters().delivered;
      if (tail_ != nullptr) total += tail_->counters().delivered;
    }
    return static_cast<double>(total);
  });
  // Per-interval tier hit rates: each callback is evaluated once per
  // sample, so the mutable snapshot turns cumulative tier counters into
  // a rate over the window since the previous sample.
  metrics_->gauge("dp.emc_hit_rate")
      .set_callback([this, prev = classifier::TierCounters{}]() mutable {
        const classifier::TierCounters now = of_->datapath_stats();
        const std::uint64_t hits = now.emc_hits - prev.emc_hits;
        const std::uint64_t lookups =
            hits + (now.megaflow_hits - prev.megaflow_hits) +
            (now.slow_path_lookups - prev.slow_path_lookups);
        prev = now;
        return lookups == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(lookups);
      });
  metrics_->gauge("dp.megaflow_hit_rate")
      .set_callback([this, prev = classifier::TierCounters{}]() mutable {
        const classifier::TierCounters now = of_->datapath_stats();
        const std::uint64_t hits = now.megaflow_hits - prev.megaflow_hits;
        const std::uint64_t lookups =
            hits + (now.emc_hits - prev.emc_hits) +
            (now.slow_path_lookups - prev.slow_path_lookups);
        prev = now;
        return lookups == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(lookups);
      });

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
  sampler_->start(*runtime_, config_.telemetry.sample_interval_ns);
}

pkt::WorkloadStats ChainScenario::offered_stats() const {
  pkt::WorkloadStats total;
  const auto add = [&total](const pkt::WorkloadStats& s) {
    total.offered += s.offered;
    total.active_flows += s.active_flows;
    total.flow_arrivals += s.flow_arrivals;
    total.flow_departures += s.flow_departures;
    total.distinct_flows += s.distinct_flows;
  };
  if (config_.use_nics) {
    if (src_fwd_) add(src_fwd_->workload_stats());
    if (src_rev_) add(src_rev_->workload_stats());
  } else {
    if (head_ != nullptr) add(head_->workload_stats());
    if (tail_ != nullptr) add(tail_->workload_stats());
  }
  return total;
}

std::uint64_t ChainScenario::total_gen_alloc_failures() const {
  std::uint64_t total = 0;
  if (config_.use_nics) {
    if (src_fwd_) total += src_fwd_->alloc_failures();
    if (src_rev_) total += src_rev_->alloc_failures();
  } else {
    if (head_ != nullptr) total += head_->counters().alloc_failures;
    if (tail_ != nullptr) total += tail_->counters().alloc_failures;
  }
  return total;
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

void ChainScenario::snapshot() {
  snap_fwd_ = config_.use_nics
                  ? (sink_fwd_ ? sink_fwd_->received() : 0)
                  : (tail_ != nullptr ? tail_->counters().delivered : 0);
  snap_rev_ = config_.use_nics
                  ? (sink_rev_ ? sink_rev_->received() : 0)
                  : (head_ != nullptr ? head_->counters().delivered : 0);

  snap_switch_rx_ = 0;
  snap_engine_busy_.clear();
  for (const auto& engine : of_->engines()) {
    snap_switch_rx_ += engine->counters().rx_packets;
  }
  for (const auto& report : runtime_->reports()) {
    if (report.name.rfind("pmd", 0) == 0) {
      snap_engine_busy_.push_back(report.busy_cycles);
    }
  }

  snap_drops_ = 0;
  for (const auto& engine : of_->engines()) {
    snap_drops_ += engine->counters().tx_ring_full +
                   engine->counters().misses +
                   engine->counters().action_drops +
                   engine->counters().rss_queue_drops;
  }
  if (nic1_) snap_drops_ += nic1_->counters().rx_missed;
  if (nic2_) snap_drops_ += nic2_->counters().rx_missed;
  snap_tiers_ = of_->datapath_stats();
  snap_rss_distributed_ = 0;
  snap_rss_queue_drops_ = 0;
  for (const auto& engine : of_->engines()) {
    snap_rss_distributed_ += engine->counters().rss_distributed;
    snap_rss_queue_drops_ += engine->counters().rss_queue_drops;
  }
  snap_rss_ = of_->rss_stats();
  snap_offered_ = offered_stats();
  snap_gen_alloc_failures_ = total_gen_alloc_failures();

  if (sink_fwd_) sink_fwd_->reset_latency();
  if (sink_rev_) sink_rev_->reset_latency();
  if (head_ != nullptr) head_->reset_latency();
  if (tail_ != nullptr) tail_->reset_latency();
  snap_time_ = runtime_->elapsed_ns();
}

ChainMetrics ChainScenario::measure(TimeNs duration_ns) {
  snapshot();
  runtime_->run_for(duration_ns);

  ChainMetrics metrics;
  metrics.duration_ns = runtime_->elapsed_ns() - snap_time_;

  const std::uint64_t fwd =
      (config_.use_nics ? (sink_fwd_ ? sink_fwd_->received() : 0)
                        : (tail_ != nullptr ? tail_->counters().delivered
                                            : 0)) -
      snap_fwd_;
  const std::uint64_t rev =
      (config_.use_nics ? (sink_rev_ ? sink_rev_->received() : 0)
                        : (head_ != nullptr ? head_->counters().delivered
                                            : 0)) -
      snap_rev_;
  metrics.delivered_fwd = fwd;
  metrics.delivered_rev = rev;
  metrics.mpps_fwd = to_mpps(fwd, metrics.duration_ns);
  metrics.mpps_rev = to_mpps(rev, metrics.duration_ns);
  metrics.mpps_total = metrics.mpps_fwd + metrics.mpps_rev;

  LatencyRecorder latency;
  if (config_.use_nics) {
    if (sink_fwd_) latency.merge(sink_fwd_->latency());
    if (sink_rev_) latency.merge(sink_rev_->latency());
  } else {
    if (head_ != nullptr) latency.merge(head_->latency());
    if (tail_ != nullptr) latency.merge(tail_->latency());
  }
  metrics.latency_mean_ns = latency.mean();
  metrics.latency_p50_ns = latency.quantile(0.50);
  metrics.latency_p99_ns = latency.quantile(0.99);
  metrics.latency_max_ns = latency.max();

  std::uint64_t switch_rx = 0;
  for (const auto& engine : of_->engines()) {
    switch_rx += engine->counters().rx_packets;
  }
  metrics.switch_rx_packets = switch_rx - snap_switch_rx_;

  std::uint64_t drops = 0;
  for (const auto& engine : of_->engines()) {
    drops += engine->counters().tx_ring_full + engine->counters().misses +
             engine->counters().action_drops +
             engine->counters().rss_queue_drops;
  }
  if (nic1_) drops += nic1_->counters().rx_missed;
  if (nic2_) drops += nic2_->counters().rx_missed;
  metrics.drops = drops - snap_drops_;

  metrics.bypass_links = of_->bypass_manager().active_links();

  const classifier::TierCounters tiers = of_->datapath_stats();
  metrics.emc_hits = tiers.emc_hits - snap_tiers_.emc_hits;
  metrics.megaflow_hits = tiers.megaflow_hits - snap_tiers_.megaflow_hits;
  metrics.slow_path_lookups =
      tiers.slow_path_lookups - snap_tiers_.slow_path_lookups;
  metrics.megaflow_inserts =
      tiers.megaflow_inserts - snap_tiers_.megaflow_inserts;
  metrics.megaflow_invalidations =
      tiers.megaflow_invalidations - snap_tiers_.megaflow_invalidations;
  metrics.megaflow_revalidations =
      tiers.megaflow_revalidations - snap_tiers_.megaflow_revalidations;
  metrics.sig_hits = tiers.sig_hits - snap_tiers_.sig_hits;
  metrics.sig_false_positives =
      tiers.sig_false_positives - snap_tiers_.sig_false_positives;
  metrics.batches = tiers.batches - snap_tiers_.batches;
  const std::uint64_t batch_pkts =
      tiers.batch_packets - snap_tiers_.batch_packets;
  metrics.batch_fill_avg =
      metrics.batches > 0
          ? static_cast<double>(batch_pkts) /
                static_cast<double>(metrics.batches)
          : 0.0;
  metrics.reval_batches = tiers.reval_batches - snap_tiers_.reval_batches;
  metrics.reval_entries_scanned =
      tiers.reval_entries_scanned - snap_tiers_.reval_entries_scanned;
  metrics.reval_coalesced_events =
      tiers.reval_coalesced_events - snap_tiers_.reval_coalesced_events;
  metrics.cache_resizes = tiers.cache_resizes - snap_tiers_.cache_resizes;
  metrics.simd_blocks = tiers.simd_blocks - snap_tiers_.simd_blocks;
  metrics.subtables_skipped =
      tiers.subtables_skipped - snap_tiers_.subtables_skipped;
  metrics.prefilter_false_positives =
      tiers.prefilter_false_positives - snap_tiers_.prefilter_false_positives;

  std::uint64_t rss_distributed = 0;
  std::uint64_t rss_queue_drops = 0;
  for (const auto& engine : of_->engines()) {
    rss_distributed += engine->counters().rss_distributed;
    rss_queue_drops += engine->counters().rss_queue_drops;
  }
  metrics.rss_distributed = rss_distributed - snap_rss_distributed_;
  metrics.rss_queue_drops = rss_queue_drops - snap_rss_queue_drops_;
  const vswitch::RssStats rss = of_->rss_stats();
  metrics.rebalance_checks = rss.rebalance_checks - snap_rss_.rebalance_checks;
  metrics.bucket_migrations =
      rss.bucket_migrations - snap_rss_.bucket_migrations;

  const pkt::WorkloadStats offered = offered_stats();
  metrics.offered_active_flows = offered.active_flows;
  metrics.offered_arrivals = offered.flow_arrivals - snap_offered_.flow_arrivals;
  metrics.offered_departures =
      offered.flow_departures - snap_offered_.flow_departures;
  metrics.gen_alloc_failures =
      total_gen_alloc_failures() - snap_gen_alloc_failures_;
  // Top-k share of the forward-direction generator (the shares of the
  // two directions are statistically identical by construction).
  if (config_.use_nics) {
    if (src_fwd_) metrics.offered_top16_share = src_fwd_->top_share(16);
  } else if (head_ != nullptr) {
    metrics.offered_top16_share = head_->top_share(16);
  }

  std::size_t engine_index = 0;
  const double window_cycles = static_cast<double>(metrics.duration_ns) *
                               static_cast<double>(config_.cost.hz) / 1e9;
  for (const auto& report : runtime_->reports()) {
    if (report.name.rfind("pmd", 0) != 0) continue;
    const Cycles prev = engine_index < snap_engine_busy_.size()
                            ? snap_engine_busy_[engine_index]
                            : 0;
    const double util =
        window_cycles > 0
            ? static_cast<double>(report.busy_cycles - prev) / window_cycles
            : 0.0;
    metrics.max_engine_utilization =
        std::max(metrics.max_engine_utilization, util);
    ++engine_index;
  }
  return metrics;
}

bool ChainScenario::drain(TimeNs max_ns) {
  if (head_ != nullptr) head_->set_generate(false);
  if (tail_ != nullptr) tail_->set_generate(false);
  if (nic1_) nic1_->attach_source(nullptr);
  if (nic2_) nic2_->attach_source(nullptr);
  return runtime_->run_until([&] { return pool_->in_use() == 0; }, max_ns);
}

}  // namespace hw::chain
