#include "chain.h"

#include <algorithm>
#include <string>

#include "clock.h"
#include "openflow/codec.h"
#include "spans.h"

namespace hb {

using hw::PortId;
using hw::Status;
using hw::openflow::Action;
using hw::openflow::FlowMod;
using hw::openflow::FlowModCommand;
using hw::openflow::Match;

namespace {

/// The throughput benches' fast_hotplug(): QEMU and guest latencies
/// scaled down tenfold, so bypass setup costs ~10 ms of virtual time.
hw::agent::HotplugLatencyModel fast_hotplug() {
  hw::agent::HotplugLatencyModel model;
  model.qemu_plug_ns /= 10;
  model.pci_scan_ns /= 10;
  model.serial_rtt_ns /= 10;
  model.qemu_unplug_ns /= 10;
  return model;
}

constexpr std::uint16_t kSteerPriority = 100;
constexpr std::uint16_t kChurnPriority = 150;
constexpr std::uint16_t kFlipPriority = 200;
constexpr std::uint8_t kChurnPrefix = 26;
constexpr std::uint32_t kChurnBlock = 1u << (32 - kChurnPrefix);
constexpr std::size_t kChurnLiveMin = 8;
constexpr std::size_t kChurnLiveMax = 24;

FlowMod output_rule(FlowModCommand command, std::uint16_t priority,
                    const Match& match, PortId out, hw::Cookie cookie) {
  FlowMod mod;
  mod.command = command;
  mod.priority = priority;
  mod.cookie = cookie;
  mod.match = match;
  mod.actions = {Action::output(out)};
  return mod;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kVanillaMegaflow, Workload::kBypassHighway,
                           Workload::kReconfigChurn}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) noexcept {
  switch (workload) {
    case Workload::kVanillaMegaflow:
      return "vanilla_megaflow";
    case Workload::kBypassHighway:
      return "bypass_highway";
    case Workload::kReconfigChurn:
      return "reconfig_churn";
  }
  return "?";
}

hw::exec::CostModel lifted_cost_model(bool doubled) {
  hw::exec::CostModel cost;
  if (doubled) {
    for (std::uint32_t* c :
         {&cost.ring_deq_base, &cost.ring_deq_per_pkt, &cost.ring_enq_base,
          &cost.ring_enq_per_pkt, &cost.parse_per_pkt, &cost.emc_hit,
          &cost.megaflow_per_subtable, &cost.megaflow_sig_block,
          &cost.megaflow_sig_scalar, &cost.megaflow_prefilter_check,
          &cost.megaflow_full_compare, &cost.megaflow_batch_packet,
          &cost.classify_batch_base, &cost.megaflow_insert,
          &cost.slow_path_base, &cost.classifier_per_rule,
          &cost.action_per_pkt, &cost.revalidate_per_entry,
          &cost.revalidate_per_term, &cost.revalidate_repair,
          &cost.revalidate_evict, &cost.rss_hash_per_pkt,
          &cost.rss_rebalance_check, &cost.vm_app_per_pkt, &cost.mbuf_alloc,
          &cost.mbuf_free, &cost.nic_per_pkt, &cost.idle_poll,
          &cost.ctrl_poll, &cost.trace_span, &cost.int_stamp}) {
      *c *= 2;
    }
  }
  cost.hz = 1'000'000'000'000'000'000ULL;
  return cost;
}

Chain::Chain(Workload workload, std::uint64_t seed, hw::exec::CostModel cost)
    : workload_(workload),
      seed_(seed),
      cost_(cost),
      rule_rng_(seed ^ 0x72756c6573ULL),
      churn_rng_(seed ^ 0x636875726eULL),
      flip_phase_(hw::Rng(seed ^ 0x666c6970ULL).next_below(kFlipPeriodSlices)) {}

Chain::~Chain() = default;

hw::pkt::TrafficProfile Chain::profile(bool forward) const {
  hw::pkt::TrafficProfile profile;
  profile.frame_len = 64;
  profile.flow_count = kFlowCount;
  profile.web_percent = kWebPercent;
  profile.workload.distribution = hw::pkt::FlowDistribution::kZipf;
  profile.workload.zipf_s = kZipfS;
  if (forward) {
    profile.src_ip_base = hw::pkt::ipv4(10, 0, 0, 1);
    profile.dst_ip_base = hw::pkt::ipv4(10, 1, 0, 1);
  } else {
    profile.src_ip_base = hw::pkt::ipv4(10, 1, 0, 1);
    profile.dst_ip_base = hw::pkt::ipv4(10, 0, 0, 1);
    profile.base_src_port = 5000;
    profile.base_dst_port = 6000;
  }
  profile.seed = seed_ * 2 + (forward ? 1 : 2);
  return profile;
}

std::size_t Chain::expected_links() const noexcept {
  switch (workload_) {
    case Workload::kVanillaMegaflow:
      return 0;
    case Workload::kBypassHighway:
      return 2 * (kVmCount - 1);
    case Workload::kReconfigChurn:
      return 4 - (flip_installed_ ? 1 : 0);  // both edge hops
  }
  return 0;
}

void Chain::build_pool() {
  pool_ = std::make_unique<hw::mbuf::Mempool>("mb0", kMempoolSize);
}

Status Chain::build(SpanLog* spans) {
  spans_ = spans;
  runtime_ = std::make_unique<hw::exec::SimRuntime>(
      hw::exec::SimConfig{.epoch_ns = kEpochNs, .cost = cost_});
  of_ = std::make_unique<hw::vswitch::OfSwitch>(
      shm_, *pool_, *runtime_, cost_,
      hw::vswitch::SwitchConfig{
          .bypass_enabled = workload_ != Workload::kVanillaMegaflow});
  agent_ = std::make_unique<hw::agent::ComputeAgent>(
      shm_, *runtime_,
      workload_ == Workload::kReconfigChurn
          ? hw::agent::HotplugLatencyModel::instant()
          : fast_hotplug());
  agent_->set_event_sink(&of_->bypass_manager());
  of_->bypass_manager().set_agent(agent_.get());
  hypervisor_ = std::make_unique<hw::vm::Hypervisor>(shm_, *agent_, cost_);

  for (std::uint32_t i = 0; i < kVmCount; ++i) {
    const std::string name = "vm" + std::to_string(i);
    hw::vm::Vm& guest = hypervisor_->create_vm(name);
    auto left = of_->add_dpdkr_port(name + ".l");
    if (!left.is_ok()) return left.status();
    auto right = of_->add_dpdkr_port(name + ".r");
    if (!right.is_ok()) return right.status();
    left_.push_back(left.value());
    right_.push_back(right.value());
    HW_RETURN_IF_ERROR(hypervisor_->attach_port(guest, left.value()));
    HW_RETURN_IF_ERROR(hypervisor_->attach_port(guest, right.value()));
  }

  std::vector<const char*> categories;
  for (std::uint32_t i = 0; i < kVmCount; ++i) {
    hw::vm::Vm& guest = hypervisor_->vm(i);
    hw::pmd::GuestPmd& left = *guest.pmd_for_port(left_[i]);
    hw::pmd::GuestPmd& right = *guest.pmd_for_port(right_[i]);
    const std::string name = "app.vm" + std::to_string(i);
    if (i == 0 || i == kVmCount - 1) {
      const bool forward = i == 0;
      auto app = std::make_unique<hw::vm::GenSinkApp>(
          name, forward ? right : left, *pool_, profile(forward), *runtime_,
          cost_, /*generate=*/true, /*burst=*/32, kRatePps);
      (forward ? head_ : tail_) = app.get();
      apps_.push_back(std::move(app));
      categories.push_back("vm.gen");
    } else {
      auto app = std::make_unique<hw::vm::ForwarderApp>(name, left, right,
                                                        *pool_, cost_);
      forwarders_.push_back(app.get());
      apps_.push_back(std::move(app));
      categories.push_back("vm.fwd");
    }
  }

  // Execution order within an epoch, as ChainScenario registers it:
  // engines, then apps, then the agent.
  const auto add = [this](hw::exec::Context* ctx, const char* category) {
    if (spans_ == nullptr) {
      runtime_->add_context(ctx);
      return;
    }
    timed_.push_back(std::make_unique<TimedContext>(*ctx, *spans_, category));
    runtime_->add_context(timed_.back().get());
  };
  for (hw::exec::Context* engine : of_->engine_contexts()) {
    add(engine, "vswitch");
  }
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    add(apps_[i].get(), categories[i]);
  }
  add(agent_.get(), "agent");
  if (spans_ != nullptr) ctrl_track_ = spans_->track("ctrl");
  base_regions_ = shm_.region_count();

  // Policy hops whose FlowMods the controller churns: the middle hop.
  const auto dst_block = [](std::uint32_t base) {
    return base & ~(kChurnBlock - 1);
  };
  churn_hops_ = {
      ChurnHop{.in = right_[1],
               .out = left_[2],
               .dst_base = dst_block(profile(true).dst_ip_base),
               .live = {}},
      ChurnHop{.in = left_[2],
               .out = right_[1],
               .dst_base = dst_block(profile(false).dst_ip_base),
               .live = {}}};
  return Status::ok();
}

std::vector<FlowMod> Chain::policy_rules(PortId in, PortId out,
                                         bool forward) {
  // Four rules above the steering rule, all to the steering rule's own
  // output: forwarding is unchanged, but an upcall unwildcards whatever
  // they examine — a /28 destination and one exact L4 source port are
  // per-flow fields, so the megaflows carry several mask shapes.
  const hw::pkt::TrafficProfile p = profile(forward);
  const auto dst28 = static_cast<std::uint32_t>(
      (p.dst_ip_base & ~15u) + 16 * rule_rng_.next_below(kFlowCount / 16));
  const auto sport = static_cast<std::uint16_t>(
      p.base_src_port + rule_rng_.next_below(kFlowCount));
  const std::uint32_t src16 = p.src_ip_base & 0xffff0000u;
  return {
      output_rule(FlowModCommand::kAdd, 140,
                  Match{}.in_port(in).ip_proto(hw::pkt::kIpProtoTcp).l4_dst(80),
                  out, next_cookie_++),
      output_rule(FlowModCommand::kAdd, 130, Match{}.in_port(in).ip_dst(dst28, 28),
                  out, next_cookie_++),
      output_rule(FlowModCommand::kAdd, 120, Match{}.in_port(in).l4_src(sport),
                  out, next_cookie_++),
      output_rule(FlowModCommand::kAdd, 110, Match{}.in_port(in).ip_src(src16, 16),
                  out, next_cookie_++),
  };
}

Status Chain::install_rules() {
  // vanilla_megaflow: policy on every hop; reconfig_churn: on the middle
  // hop only, which therefore stays switched. Policy goes in before the
  // steering rules, so no policy hop is ever briefly a p-2-p link.
  std::vector<FlowMod> mods;
  for (std::uint32_t i = 0; i + 1 < kVmCount; ++i) {
    const bool policy = workload_ == Workload::kVanillaMegaflow ||
                        (workload_ == Workload::kReconfigChurn && i == 1);
    if (!policy) continue;
    for (const bool forward : {true, false}) {
      const PortId in = forward ? right_[i] : left_[i + 1];
      const PortId out = forward ? left_[i + 1] : right_[i];
      for (FlowMod& mod : policy_rules(in, out, forward)) {
        mods.push_back(std::move(mod));
      }
    }
  }
  for (std::uint32_t i = 0; i + 1 < kVmCount; ++i) {
    mods.push_back(hw::openflow::make_p2p_flowmod(right_[i], left_[i + 1],
                                                  kSteerPriority,
                                                  next_cookie_++));
    mods.push_back(hw::openflow::make_p2p_flowmod(left_[i + 1], right_[i],
                                                  kSteerPriority,
                                                  next_cookie_++));
  }
  for (const FlowMod& mod : mods) plan_flow_mod(Message::Kind::kRule, mod);
  for (const Message& message : planned_) {
    HW_RETURN_IF_ERROR(send(message, 0));
  }
  planned_.clear();
  return Status::ok();
}

bool Chain::wait_bypass() {
  const std::size_t expected = expected_links();
  return runtime_->run_until(
      [&] { return of_->bypass_manager().active_links() >= expected; },
      400'000'000);
}

void Chain::plan_flow_mod(Message::Kind kind, const FlowMod& mod) {
  planned_.push_back(
      Message{.kind = kind, .bytes = hw::openflow::encode_flow_mod(mod, 0)});
}

void Chain::plan_churn(std::uint32_t count) {
  for (std::uint32_t n = 0; n < count; ++n) {
    ChurnHop& hop = churn_hops_[churn_turn_++ % churn_hops_.size()];
    const bool add =
        hop.live.size() < kChurnLiveMin ||
        (hop.live.size() < kChurnLiveMax && churn_rng_.chance(1, 2));
    std::uint32_t block = 0;
    if (add) {
      // A /26 over the live flows' destinations that is not yet installed.
      do {
        block = static_cast<std::uint32_t>(
            churn_rng_.next_below(kFlowCount / kChurnBlock + 1));
      } while (std::find(hop.live.begin(), hop.live.end(), block) !=
               hop.live.end());
      hop.live.push_back(block);
    } else {
      const auto at = churn_rng_.next_below(hop.live.size());
      block = hop.live[at];
      hop.live[at] = hop.live.back();
      hop.live.pop_back();
    }
    plan_flow_mod(
        Message::Kind::kChurn,
        output_rule(add ? FlowModCommand::kAdd : FlowModCommand::kDeleteStrict,
                    kChurnPriority,
                    Match{}.in_port(hop.in).ip_dst(
                        hop.dst_base + block * kChurnBlock, kChurnPrefix),
                    hop.out, add ? next_cookie_++ : 0));
  }
}

void Chain::plan_slice(std::uint64_t index) {
  planned_.clear();
  if (workload_ != Workload::kReconfigChurn) return;
  plan_churn(kChurnPerSlice);
  // One flip per period at a seeded phase: every seed flips equally often.
  if (index % kFlipPeriodSlices == flip_phase_) {
    flip_installed_ = !flip_installed_;
    plan_flow_mod(
        Message::Kind::kFlip,
        output_rule(flip_installed_ ? FlowModCommand::kAdd
                                    : FlowModCommand::kDeleteStrict,
                    kFlipPriority,
                    Match{}.in_port(right_[0]).ip_proto(hw::pkt::kIpProtoTcp),
                    left_[1], flip_installed_ ? next_cookie_++ : 0));
  }
}

Status Chain::send(const Message& message, std::uint64_t slice) {
  const auto mix = [this](std::uint64_t v) {
    digest_ = (digest_ ^ v) * 0x100000001b3ULL;
  };
  mix(slice);
  for (const std::byte b : message.bytes) mix(static_cast<std::uint64_t>(b));
  ++flowmods_sent_;
  if (message.kind == Message::Kind::kFlip) ++flips_sent_;
  auto reply = of_->handle_message(message.bytes);
  if (!reply.is_ok()) ++flowmod_errors_;
  return reply.status();
}

Status Chain::run_slice(std::uint64_t index, FlowModTimes* times) {
  if (spans_ != nullptr) spans_->set_parent(index);
  for (const Message& message : planned_) {
    const TimeNs begin = host_ns();
    const Status status = send(message, index);
    const TimeNs end = host_ns();
    if (!status.is_ok()) return status;
    const bool flip = message.kind == Message::Kind::kFlip;
    if (times != nullptr) {
      (flip ? times->flip_ns : times->churn_ns)
          .push_back(static_cast<double>(end - begin));
    }
    if (spans_ != nullptr) {
      spans_->record(flip ? "flip" : "flowmod", flip ? "bypass" : "openflow",
                     ctrl_track_, begin, end);
    }
  }
  planned_.clear();
  runtime_->run_for(kSliceNs);
  return Status::ok();
}

bool Chain::drain() {
  head_->set_generate(false);
  tail_->set_generate(false);
  const hw::vswitch::BypassManager& bypass = of_->bypass_manager();
  return runtime_->run_until(
      [&] {
        return pool_->in_use() == 0 && agent_->inflight_ops() == 0 &&
               bypass.pending_links() == 0 && bypass.deferred_links() == 0;
      },
      100'000'000);
}

}  // namespace hb
