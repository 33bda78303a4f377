#include "vswitch/bypass_manager.h"

#include <algorithm>

#include "common/log.h"
#include "exec/runtime.h"
#include "pmd/channel.h"
#include "pmd/guest_pmd.h"

namespace hw::vswitch {

BypassManager::BypassManager(shm::ShmManager& shm,
                             flowtable::FlowTable& table,
                             pmd::SharedStats stats,
                             IncrementalP2pDetector detector,
                             BypassManagerConfig config)
    : shm_(&shm),
      table_(&table),
      stats_(stats),
      detector_(std::move(detector)),
      config_(config) {
  // Pick up rules installed before the manager existed, then stay in
  // sync off the table's own change stream: one O(ids-touched) bucket
  // update per committed FlowMod, no full scans.
  detector_.reset(*table_);
  table_token_ = table_->subscribe([this](const flowtable::TableChangeEvent& e) {
    detector_.on_event(e, *table_);
  });
}

BypassManager::~BypassManager() { table_->unsubscribe(table_token_); }

void BypassManager::add_candidate_port(PortId port) {
  detector_.add_candidate_port(port);
}

void BypassManager::remove_candidate_port(PortId port) {
  detector_.remove_candidate_port(port);
  // Links targeting the port are invisible to the event stream; a full
  // re-evaluation at the next refresh catches them (retire is rare).
  detector_.invalidate_all();
  retry_ports_.insert(port);  // its own link must reconcile away
  on_table_change();
}

void BypassManager::invalidate_eligibility() {
  detector_.invalidate_all();
  on_table_change();
}

std::optional<std::uint32_t> BypassManager::alloc_slot() noexcept {
  for (std::uint32_t i = 0; i < slot_used_.size(); ++i) {
    if (!slot_used_[i]) {
      slot_used_[i] = true;
      return i;
    }
  }
  return std::nullopt;
}

void BypassManager::record_span(const char* name, TimeNs begin_ns,
                                PortId from, PortId to) noexcept {
  if (tracer_ == nullptr || trace_clock_ == nullptr) return;
  telemetry::Span span;
  span.name = name;
  span.category = "bypass";
  span.track = trace_track_;
  span.begin_ns = begin_ns;
  span.end_ns = trace_clock_->epoch_start_ns();
  span.a0 = from;
  span.a1 = to;
  tracer_->record(span);
}

std::size_t BypassManager::region_users(const std::string& region) const {
  return static_cast<std::size_t>(
      std::count_if(links_.begin(), links_.end(), [&](const auto& kv) {
        return kv.second.region == region;
      }));
}

bool BypassManager::region_tearing_down(const P2pLink& link) const noexcept {
  const auto it = links_.find(link.to);
  return it != links_.end() && it->second.link.to == link.from &&
         it->second.state == LinkState::kTearingDown;
}

bool BypassManager::at_rx_fanin_cap(const P2pLink& link) const noexcept {
  const std::size_t inbound = static_cast<std::size_t>(
      std::count_if(links_.begin(), links_.end(), [&](const auto& kv) {
        return kv.second.link.to == link.to;
      }));
  return inbound >= pmd::GuestPmd::kMaxBypassRx;
}

void BypassManager::on_table_change() {
  if (in_reconcile_) {
    reconcile_pending_ = true;
    return;
  }
  in_reconcile_ = true;
  do {
    reconcile_pending_ = false;
    // Only ports whose link actually changed, plus parked retries — the
    // reconcile is O(changed), not O(links).
    std::vector<PortId> check = detector_.refresh(*table_);
    if (!retry_ports_.empty()) {
      check.insert(check.end(), retry_ports_.begin(), retry_ports_.end());
      retry_ports_.clear();
      std::sort(check.begin(), check.end());
      check.erase(std::unique(check.begin(), check.end()), check.end());
    }
    for (const PortId from : check) reconcile_port(from);
  } while (reconcile_pending_);
  in_reconcile_ = false;
}

void BypassManager::reconcile_port(PortId from) {
  const auto& desired = detector_.links();
  const auto dit = desired.find(from);
  const auto lit = links_.find(from);

  if (lit != links_.end()) {
    LinkInfo& info = lit->second;
    const bool still_wanted =
        dit != desired.end() && dit->second.to == info.link.to;
    if (still_wanted) {
      // Same direction; the rule may have been replaced — track the new
      // rule id/cookie so statistics keep merging correctly.
      if (info.link.rule != dit->second.rule) {
        drop_rule_binding(info);
        rule_index_[dit->second.rule] = from;
      }
      info.link = dit->second;
      info.cancel_after_setup = false;
      return;
    }
    // No longer desired (or destination changed).
    switch (info.state) {
      case LinkState::kActive:
        initiate_teardown(info);
        break;
      case LinkState::kSettingUp:
        info.cancel_after_setup = true;
        break;
      case LinkState::kTearingDown:
        break;  // already on its way out
    }
    // A replacement direction re-arms once the teardown completes.
    if (dit != desired.end()) retry_ports_.insert(from);
    return;
  }

  if (dit == desired.end()) return;
  const P2pLink& link = dit->second;
  if (region_tearing_down(link)) {
    // The pair's region is being unplugged by the reverse direction;
    // attaching now would race its destroy. Park until that completes.
    ++counters_.setups_deferred_region;
    retry_ports_.insert(from);
    return;
  }
  if (at_rx_fanin_cap(link)) {
    // The destination's guest PMD has no free bypass RX ring; asking the
    // agent now would end in a NACK and a dropped link. Park until an
    // inbound teardown frees a slot.
    ++counters_.setups_deferred_fanin;
    retry_ports_.insert(from);
    return;
  }
  if (at_inflight_cap()) {
    ++counters_.setups_deferred_inflight;
    retry_ports_.insert(from);
    return;
  }
  initiate_setup(link);
}

void BypassManager::initiate_setup(const P2pLink& link) {
  if (agent_ == nullptr) {
    HW_LOG(kWarn, "bypass", "no compute agent; link %u->%u ignored",
           link.from, link.to);
    return;
  }
  const auto slot = alloc_slot();
  if (!slot.has_value()) {
    HW_LOG(kWarn, "bypass", "out of stats slots; link %u->%u parked",
           link.from, link.to);
    retry_ports_.insert(link.from);  // a teardown will free a slot
    return;
  }

  const PortId lo = std::min(link.from, link.to);
  const PortId hi = std::max(link.from, link.to);
  const std::string region_name = pmd::bypass_channel_region(lo, hi);

  shm::ShmRegion* region = shm_->find(region_name);
  bool plug_required = false;
  if (region == nullptr) {
    auto created = shm_->create(
        region_name, pmd::ChannelView::bytes_required(config_.ring_capacity));
    if (!created.is_ok()) {
      HW_LOG(kError, "bypass", "region create failed: %s",
             created.status().to_string().c_str());
      slot_used_[*slot] = false;
      return;
    }
    region = created.value();
    // A fresh epoch per region incarnation: PMDs attach with the epoch
    // the manager hands them, so a mapping of a previous incarnation of
    // this pair's region can never be revived by mistake.
    auto channel = pmd::ChannelView::create_in(
        *region, config_.ring_capacity, lo, hi, next_epoch_++);
    if (!channel.is_ok()) {
      slot_used_[*slot] = false;
      (void)shm_->destroy(region_name);
      return;
    }
    plug_required = true;
  }

  auto channel = pmd::ChannelView::attach(*region);
  const std::uint64_t epoch =
      channel.is_ok() ? channel.value().header().epoch : 0;

  LinkInfo info;
  info.link = link;
  info.state = LinkState::kSettingUp;
  info.rule_slot = *slot;
  info.region = region_name;
  if (trace_clock_ != nullptr) {
    info.setup_requested_ns = trace_clock_->epoch_start_ns();
  }
  links_[link.from] = info;
  rule_index_[link.rule] = link.from;

  ++counters_.setups_requested;
  ++inflight_ops_;
  HW_LOG(kInfo, "bypass", "setup %u->%u region=%s slot=%u plug=%d",
         link.from, link.to, region_name.c_str(), *slot,
         plug_required ? 1 : 0);
  agent_->request_bypass_setup(BypassSetupRequest{
      .from = link.from,
      .to = link.to,
      .region = region_name,
      .epoch = epoch,
      .rule_slot = *slot,
      .plug_required = plug_required,
  });
}

void BypassManager::initiate_teardown(LinkInfo& info) {
  info.state = LinkState::kTearingDown;
  if (trace_clock_ != nullptr) {
    info.teardown_requested_ns = trace_clock_->epoch_start_ns();
  }
  ++counters_.teardowns_requested;
  ++inflight_ops_;
  // Unplug when this is the last direction still holding the region:
  // siblings already tearing down do not count, otherwise two concurrent
  // direction teardowns would each defer to the other and the region
  // would stay plugged (and therefore undestroyable) forever.
  const bool unplug_after =
      std::count_if(links_.begin(), links_.end(), [&](const auto& kv) {
        return kv.second.region == info.region &&
               kv.second.state != LinkState::kTearingDown;
      }) == 0;
  HW_LOG(kInfo, "bypass", "teardown %u->%u region=%s unplug=%d",
         info.link.from, info.link.to, info.region.c_str(),
         unplug_after ? 1 : 0);
  agent_->request_bypass_teardown(BypassTeardownRequest{
      .from = info.link.from,
      .to = info.link.to,
      .region = info.region,
      .unplug_after = unplug_after,
  });
}

void BypassManager::fold_and_release_slot(LinkInfo& info) {
  const auto [pkts, bytes] = stats_.read_rule(info.rule_slot);
  if (pkts != 0 || bytes != 0) {
    // Fold bypassed counters back into the (possibly still live) rule so
    // history is preserved once the shared slot is recycled.
    table_->account(info.link.rule, pkts, bytes);
  }
  stats_.clear_rule(info.rule_slot);
  slot_used_[info.rule_slot] = false;
}

void BypassManager::drop_rule_binding(const LinkInfo& info) noexcept {
  const auto it = rule_index_.find(info.link.rule);
  if (it != rule_index_.end() && it->second == info.link.from) {
    rule_index_.erase(it);
  }
}

void BypassManager::on_bypass_ready(PortId from, PortId to, bool ok) {
  auto it = links_.find(from);
  if (it == links_.end() || it->second.link.to != to) {
    HW_LOG(kWarn, "bypass", "stray setup completion %u->%u", from, to);
    return;
  }
  if (inflight_ops_ > 0) --inflight_ops_;
  LinkInfo& info = it->second;
  if (!ok) {
    ++counters_.setups_failed;
    HW_LOG(kWarn, "bypass", "setup failed %u->%u", from, to);
    fold_and_release_slot(info);
    drop_rule_binding(info);
    const std::string region = info.region;
    links_.erase(it);
    if (region_users(region) == 0) {
      (void)shm_->destroy(region);  // agent rolled back its plugs
    }
    if (!retry_ports_.empty()) on_table_change();
    return;
  }
  if (info.cancel_after_setup) {
    // The link stopped being desired while the agent was plugging.
    info.cancel_after_setup = false;
    initiate_teardown(info);
    return;
  }
  info.state = LinkState::kActive;
  ++counters_.setups_completed;
  record_span("bypass_setup", info.setup_requested_ns, from, to);
  HW_LOG(kInfo, "bypass", "ACTIVE %u->%u", from, to);
  // A completion frees an in-flight slot: drain parked setups.
  if (!retry_ports_.empty()) on_table_change();
}

void BypassManager::on_bypass_torn_down(PortId from, PortId to) {
  auto it = links_.find(from);
  if (it == links_.end() || it->second.link.to != to) {
    HW_LOG(kWarn, "bypass", "stray teardown completion %u->%u", from, to);
    return;
  }
  if (inflight_ops_ > 0) --inflight_ops_;
  record_span("bypass_teardown", it->second.teardown_requested_ns, from, to);
  fold_and_release_slot(it->second);
  drop_rule_binding(it->second);
  const std::string region = it->second.region;
  links_.erase(it);
  ++counters_.teardowns_completed;
  if (region_users(region) == 0) {
    const Status status = shm_->destroy(region);
    if (!status.is_ok()) {
      HW_LOG(kWarn, "bypass", "region %s destroy: %s", region.c_str(),
             status.to_string().c_str());
    }
  }
  HW_LOG(kInfo, "bypass", "torn down %u->%u", from, to);
  // A different link for this source port may now be possible, and
  // setups parked behind this teardown's region can now start.
  retry_ports_.insert(from);
  on_table_change();
}

std::pair<std::uint64_t, std::uint64_t> BypassManager::rule_extra(
    RuleId rule) const noexcept {
  const auto it = rule_index_.find(rule);
  if (it == rule_index_.end()) return {0, 0};
  const auto lit = links_.find(it->second);
  if (lit == links_.end() || lit->second.link.rule != rule) return {0, 0};
  return stats_.read_rule(lit->second.rule_slot);
}

std::size_t BypassManager::active_links() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(links_.begin(), links_.end(), [](const auto& kv) {
        return kv.second.state == LinkState::kActive;
      }));
}

std::size_t BypassManager::pending_links() const noexcept {
  return links_.size() - active_links();
}

bool BypassManager::link_active(PortId from, PortId to) const noexcept {
  auto it = links_.find(from);
  return it != links_.end() && it->second.link.to == to &&
         it->second.state == LinkState::kActive;
}

}  // namespace hw::vswitch
