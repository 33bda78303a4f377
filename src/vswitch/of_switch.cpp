#include "vswitch/of_switch.h"

#include <cstring>

#include "common/log.h"
#include "pmd/channel.h"
#include "pmd/control.h"

namespace hw::vswitch {

using openflow::FlowMod;
using openflow::PacketOut;

OfSwitch::OfSwitch(shm::ShmManager& shm, mbuf::Mempool& pool,
                   exec::Runtime& runtime, const exec::CostModel& cost,
                   SwitchConfig config)
    : shm_(&shm),
      pool_(&pool),
      runtime_(&runtime),
      cost_(cost),
      config_(config) {
  // Host-wide shared statistics region (plugged into VMs at boot).
  auto stats_region = shm_->create(pmd::SharedStats::region_name(),
                                   pmd::SharedStats::bytes_required());
  if (stats_region.is_ok()) {
    auto stats = pmd::SharedStats::create_in(*stats_region.value());
    if (stats.is_ok()) shared_stats_ = stats.value();
  } else {
    // Another switch instance on the same host already created it.
    if (auto* existing = shm_->find(pmd::SharedStats::region_name())) {
      if (auto stats = pmd::SharedStats::attach(*existing); stats.is_ok()) {
        shared_stats_ = stats.value();
      }
    }
  }

  const std::uint32_t engine_count =
      config_.engine_count == 0 ? 1 : config_.engine_count;
  classifier::DpClassifierConfig classifier_config{
      .emc_enabled = config_.emc_enabled,
      .megaflow_enabled = config_.megaflow_enabled};
  classifier_config.megaflow.auto_size = config_.megaflow_auto_size;
  classifier_config.megaflow.sig_scan_mode = config_.sig_scan_mode;
  classifier_config.megaflow.subtable_prefilter = config_.subtable_prefilter;
  for (std::uint32_t i = 0; i < engine_count; ++i) {
    engines_.push_back(std::make_unique<ForwardingEngine>(
        "pmd" + std::to_string(i), table_, *pool_, cost_, classifier_config,
        config_.burst));
  }
  // RSS sharding only makes sense across a real pool; a single engine
  // keeps the direct per-port path (no distributor hop to pay for).
  if (config_.rss.enabled && engines_.size() > 1) {
    sharder_ = std::make_unique<RssSharder>(
        config_.rss, static_cast<std::uint32_t>(engines_.size()));
  }
  for (std::uint32_t i = 0; i < engine_count; ++i) {
    engines_[i]->configure_rss(sharder_.get(), i);
  }

  bypass_ = std::make_unique<BypassManager>(
      *shm_, table_, shared_stats_,
      IncrementalP2pDetector(
          [this](PortId id) { return is_bypass_eligible(id); }),
      BypassManagerConfig{.ring_capacity = config_.ring_capacity,
                          .max_inflight_ops = config_.bypass_max_inflight});

  if (config_.tracer != nullptr) {
    for (auto& engine : engines_) {
      engine->configure_trace(
          config_.tracer, runtime_,
          config_.tracer->register_track(std::string(engine->name())));
    }
    ctrl_track_ = config_.tracer->register_track("ctrl");
    bypass_->configure_trace(config_.tracer, runtime_, ctrl_track_);
  }
}

Result<PortId> OfSwitch::add_dpdkr_port(const std::string& name) {
  const PortId id = next_port_;
  if (id >= kMaxPorts) return Status::resource_exhausted("port space full");

  auto region =
      shm_->create(pmd::normal_channel_region(id),
                   pmd::ChannelView::bytes_required(config_.ring_capacity));
  if (!region.is_ok()) return region.status();
  auto channel = pmd::ChannelView::create_in(
      *region.value(), config_.ring_capacity, id, id, /*epoch=*/1);
  if (!channel.is_ok()) return channel.status();

  auto ctrl_region = shm_->create(pmd::control_channel_region(id),
                                  pmd::ControlChannel::bytes_required());
  if (!ctrl_region.is_ok()) return ctrl_region.status();
  auto ctrl = pmd::ControlChannel::create_in(*ctrl_region.value());
  if (!ctrl.is_ok()) return ctrl.status();

  auto port =
      std::make_unique<DpdkrSwitchPort>(id, name, channel.value());
  wire_port(port.get());
  bypass_->add_candidate_port(id);
  ports_.push_back(std::move(port));
  ++next_port_;
  if (config_.bypass_enabled) {
    // Hotplug mid-run: steering rules naming this port may already be
    // installed (only the new candidate port is re-evaluated).
    bypass_->on_table_change();
  }
  HW_LOG(kInfo, "vswitch", "added dpdkr port %u (%s)", id, name.c_str());
  return id;
}

Result<PortId> OfSwitch::add_phy_port(const std::string& name,
                                      nic::SimNic& nic) {
  const PortId id = next_port_;
  if (id >= kMaxPorts) return Status::resource_exhausted("port space full");
  auto port = std::make_unique<PhySwitchPort>(id, name, nic);
  wire_port(port.get());
  ports_.push_back(std::move(port));
  ++next_port_;
  HW_LOG(kInfo, "vswitch", "added phy port %u (%s)", id, name.c_str());
  return id;
}

void OfSwitch::wire_port(SwitchPort* port) {
  for (auto& engine : engines_) engine->register_output(port);
  // Round-robin *home* assignment: the home engine polls the port's
  // physical rx ring. Without RSS it also classifies everything the
  // port receives; with RSS it is the distributor, steering each frame
  // to its bucket owner through per-(port, engine) SPSC queues.
  const std::size_t home =
      (static_cast<std::size_t>(port->id()) - 1) % engines_.size();
  if (sharder_ == nullptr) {
    engines_[home]->assign_port(port);
    return;
  }
  std::vector<ring::SpscRing<mbuf::Mbuf*>*> queues(engines_.size(), nullptr);
  for (std::size_t e = 0; e < engines_.size(); ++e) {
    if (e == home) continue;  // home's own share never crosses a queue
    rss_queues_.push_back(std::make_unique<ring::OwnedSpscRing<mbuf::Mbuf*>>(
        config_.ring_capacity));
    queues[e] = rss_queues_.back()->get();
    engines_[e]->attach_rx_queue(port, queues[e]);
  }
  engines_[home]->assign_rss_port(port, std::move(queues));
}

SwitchPort* OfSwitch::port(PortId id) noexcept {
  if (id == 0 || id > ports_.size()) return nullptr;
  return ports_[id - 1].get();
}

bool OfSwitch::is_dpdkr(PortId id) const noexcept {
  if (id == 0 || id > ports_.size()) return false;
  return ports_[id - 1]->kind() == PortKind::kDpdkr;
}

bool OfSwitch::is_bypass_eligible(PortId id) const noexcept {
  if (id == 0 || id > ports_.size()) return false;
  const SwitchPort& p = *ports_[id - 1];
  return p.kind() == PortKind::kDpdkr && p.enabled();
}

std::vector<PortId> OfSwitch::dpdkr_ports() const {
  std::vector<PortId> out;
  for (const auto& port : ports_) {
    if (port->kind() == PortKind::kDpdkr) out.push_back(port->id());
  }
  return out;
}

Status OfSwitch::set_port_enabled(PortId id, bool enabled) {
  SwitchPort* p = port(id);
  if (p == nullptr) return Status::not_found("no such port");
  const bool was = p->enabled();
  p->set_enabled(enabled);
  if (config_.bypass_enabled && was != enabled && is_dpdkr(id)) {
    // Eligibility flips are invisible to the table's event stream; force
    // a full re-evaluation so links into a dead port come down (and
    // links into a revived one come back).
    bypass_->invalidate_eligibility();
  }
  return Status::ok();
}

Status OfSwitch::retire_dpdkr_port(PortId id) {
  SwitchPort* p = port(id);
  if (p == nullptr) return Status::not_found("no such port");
  if (p->kind() != PortKind::kDpdkr) {
    return Status::invalid_argument("not a dpdkr port");
  }
  p->set_enabled(false);
  if (config_.bypass_enabled) {
    // Tears down the port's own link and any link targeting it; the
    // agent quiesces + unplugs asynchronously as usual.
    bypass_->remove_candidate_port(id);
  }
  HW_LOG(kInfo, "vswitch", "retired dpdkr port %u (%.*s)", id,
         static_cast<int>(p->name().size()), p->name().data());
  return Status::ok();
}

Status OfSwitch::handle_flow_mod(const FlowMod& mod) {
  // Validate output targets refer to known ports (or the controller).
  for (const openflow::Action& action : mod.actions) {
    if (action.type == openflow::ActionType::kOutput &&
        action.port != kPortController && port(action.port) == nullptr) {
      return Status::invalid_argument("output to unknown port");
    }
  }
  // Control-plane span: no CycleMeter here (the controller is not a
  // simulated core), so the span is epoch-granular — begin == end unless
  // the apply straddles an epoch, which it cannot.
  telemetry::ScopedSpan span(config_.tracer, "flowmod", "flowmod",
                             ctrl_track_, runtime_->epoch_start_ns());
  span.set_args(static_cast<std::uint64_t>(mod.command), mod.cookie);
  // install_time_ns is compared against flow_stats()'s clock read, which
  // may run in a different context: stamp with the cross-context clock.
  auto result = table_.apply(mod, runtime_->epoch_start_ns());
  if (!result.is_ok()) return result.status();
  ++counters_.flow_mods;
  const auto& r = result.value();
  if (config_.bypass_enabled && (r.added + r.modified + r.removed) > 0) {
    // The p-2-p link detector analyses every table change.
    bypass_->on_table_change();
  }
  return Status::ok();
}

Status OfSwitch::handle_packet_out(const PacketOut& po) {
  SwitchPort* dst = port(po.out_port);
  if (dst == nullptr) return Status::not_found("no such port");
  if (!dst->enabled()) return Status::failed_precondition("port disabled");
  if (po.frame.empty() || po.frame.size() > mbuf::kMbufDataRoom) {
    return Status::invalid_argument("bad frame size");
  }
  mbuf::Mbuf* buf = pool_->alloc();
  if (buf == nullptr) return Status::resource_exhausted("mempool empty");
  std::memcpy(buf->data, po.frame.data(), po.frame.size());
  buf->data_len = static_cast<std::uint32_t>(po.frame.size());
  mbuf::Mbuf* const bufs[1] = {buf};
  if (dst->tx_burst(bufs) != 1) {
    pool_->free(buf);
    ++counters_.packet_out_failures;
    return Status::resource_exhausted("port ring full");
  }
  dst->stats().tx_packets += 1;
  dst->stats().tx_bytes += po.frame.size();
  ++counters_.packet_outs;
  return Status::ok();
}

std::vector<openflow::FlowStatsEntry> OfSwitch::flow_stats() const {
  std::vector<openflow::FlowStatsEntry> out;
  const TimeNs now = runtime_->epoch_start_ns();
  for (const flowtable::FlowEntry& entry : table_.entries()) {
    openflow::FlowStatsEntry stats;
    stats.match = entry.match;
    stats.priority = entry.priority;
    stats.cookie = entry.cookie;
    stats.actions = entry.actions;
    stats.packet_count = entry.packet_count;
    stats.byte_count = entry.byte_count;
    stats.duration_ns =
        now >= entry.install_time_ns ? now - entry.install_time_ns : 0;
    // Bypassed traffic: the switch never forwarded these packets; the
    // PMDs counted them in shared memory on our behalf.
    const auto [extra_pkts, extra_bytes] = bypass_->rule_extra(entry.id);
    stats.packet_count += extra_pkts;
    stats.byte_count += extra_bytes;
    out.push_back(std::move(stats));
  }
  return out;
}

Result<openflow::PortStats> OfSwitch::port_stats(PortId id) const {
  SwitchPort* p = const_cast<OfSwitch*>(this)->port(id);
  if (p == nullptr) return Status::not_found("no such port");
  openflow::PortStats merged = p->stats();
  // Datapath counters live in per-engine shards (several engines may
  // rx/tx the same port once the datapath is RSS-sharded); the port's
  // own stats carry only control-plane writes (packet-out).
  for (const auto& engine : engines_) {
    if (const openflow::PortStats* shard = engine->port_accum(id)) {
      merged += *shard;
    }
  }
  if (shared_stats_.valid()) {
    merged += shared_stats_.read_port(id);
  }
  if (p->kind() == PortKind::kPhy) {
    // Controllers expect NIC-level drops in port stats: frames the wire
    // delivered but the host ring could not absorb.
    const auto& nic = static_cast<PhySwitchPort*>(p)->nic().counters();
    merged.rx_dropped += nic.rx_missed;
  }
  merged.port = id;
  return merged;
}

Result<std::vector<std::byte>> OfSwitch::handle_message(
    std::span<const std::byte> data) {
  ++counters_.messages;
  auto header = openflow::decode_header(data);
  if (!header.is_ok()) {
    ++counters_.message_errors;
    return header.status();
  }
  const std::uint32_t xid = header.value().xid;
  switch (header.value().type) {
    case openflow::MsgType::kFlowMod: {
      auto mod = openflow::decode_flow_mod(data);
      if (!mod.is_ok()) break;
      HW_RETURN_IF_ERROR(handle_flow_mod(mod.value()));
      return std::vector<std::byte>{};
    }
    case openflow::MsgType::kPacketOut: {
      auto po = openflow::decode_packet_out(data);
      if (!po.is_ok()) break;
      HW_RETURN_IF_ERROR(handle_packet_out(po.value()));
      return std::vector<std::byte>{};
    }
    case openflow::MsgType::kFlowStatsRequest: {
      const auto stats = flow_stats();
      return openflow::encode_flow_stats_reply(stats, xid);
    }
    case openflow::MsgType::kPortStatsRequest: {
      auto port_id = openflow::decode_port_stats_request(data);
      if (!port_id.is_ok()) break;
      auto stats = port_stats(port_id.value());
      if (!stats.is_ok()) return stats.status();
      const openflow::PortStats one[1] = {stats.value()};
      return openflow::encode_port_stats_reply(one, xid);
    }
    case openflow::MsgType::kEchoRequest: {
      std::vector<std::byte> reply(openflow::kMsgHeaderLen);
      reply[0] = static_cast<std::byte>(openflow::kWireVersion);
      reply[1] = static_cast<std::byte>(openflow::MsgType::kEchoReply);
      reply[2] = std::byte{0};
      reply[3] = static_cast<std::byte>(openflow::kMsgHeaderLen);
      reply[4] = static_cast<std::byte>(xid >> 24);
      reply[5] = static_cast<std::byte>((xid >> 16) & 0xff);
      reply[6] = static_cast<std::byte>((xid >> 8) & 0xff);
      reply[7] = static_cast<std::byte>(xid & 0xff);
      return reply;
    }
    default:
      break;
  }
  ++counters_.message_errors;
  return Status::invalid_argument("unsupported or malformed message");
}

classifier::TierCounters OfSwitch::datapath_stats() const {
  classifier::TierCounters total;
  for (const auto& engine : engines_) total += engine->tier_counters();
  return total;
}

std::vector<exec::Context*> OfSwitch::engine_contexts() {
  std::vector<exec::Context*> out;
  out.reserve(engines_.size());
  for (auto& engine : engines_) out.push_back(engine.get());
  return out;
}

}  // namespace hw::vswitch
