#include "agent/compute_agent.h"

#include <algorithm>

#include "common/log.h"

namespace hw::agent {

using pmd::CtrlMsg;
using pmd::CtrlOp;

ComputeAgent::ComputeAgent(shm::ShmManager& shm, exec::Runtime& runtime,
                           HotplugLatencyModel latency)
    : shm_(&shm), runtime_(&runtime), latency_(latency) {}

void ComputeAgent::register_port(PortId port, VmId vm) {
  port_vm_[port] = vm;
}

pmd::ControlChannel* ComputeAgent::control_for(PortId port) {
  if (auto it = ctrl_cache_.find(port); it != ctrl_cache_.end()) {
    return &it->second;
  }
  shm::ShmRegion* region = shm_->find(pmd::control_channel_region(port));
  if (region == nullptr) return nullptr;
  auto channel = pmd::ControlChannel::attach(*region);
  if (!channel.is_ok()) return nullptr;
  auto [it, inserted] = ctrl_cache_.emplace(port, channel.value());
  return &it->second;
}

bool ComputeAgent::send_ctrl(PortId port, const CtrlMsg& msg) {
  pmd::ControlChannel* channel = control_for(port);
  if (channel == nullptr) return false;
  if (!channel->cmd().enqueue(msg)) return false;
  ++counters_.ctrl_sent;
  return true;
}

void ComputeAgent::collect_acks() {
  // Drain only the ports referenced by in-flight operations: acks can
  // only arrive on a channel we sent a command to, and the in-flight set
  // is bounded (BypassManagerConfig::max_inflight_ops) while the port
  // fleet is not — a full ctrl_cache_ sweep would be O(ports) per poll.
  watch_ports_.clear();
  for (const auto& [key, op] : ops_) {
    watch_ports_.push_back(op.from);
    watch_ports_.push_back(op.to);
  }
  std::sort(watch_ports_.begin(), watch_ports_.end());
  watch_ports_.erase(std::unique(watch_ports_.begin(), watch_ports_.end()),
                     watch_ports_.end());
  CtrlMsg ack;
  for (const PortId port : watch_ports_) {
    const auto channel = ctrl_cache_.find(port);
    if (channel == ctrl_cache_.end()) continue;
    while (channel->second.ack().dequeue(ack)) {
      // An ack no step awaits (late, duplicated, or from another port)
      // is dropped here.
      for (auto& [key, op] : ops_) {
        const Step& step = op.steps[op.step];
        if (op.phase == Phase::kAwaiting && op.seq == ack.seq &&
            (step.rx_side ? op.to : op.from) == port) {
          op.phase = ack.ok != 0 ? Phase::kDone : Phase::kNacked;
          break;
        }
      }
    }
  }
}

bool ComputeAgent::region_ring_empty(const Op& op) {
  shm::ShmRegion* region = shm_->find(op.region);
  if (region == nullptr) return true;  // gone ⇒ nothing to drain
  auto channel = pmd::ChannelView::attach(*region);
  if (!channel.is_ok()) return true;
  const PortId lo = std::min(op.from, op.to);
  pmd::MbufRing& ring =
      op.from == lo ? channel.value().a2b() : channel.value().b2a();
  return ring.empty();
}

void ComputeAgent::plug(const Op& op, VmId vm) {
  if (shm_->plug(op.region, vm).is_ok()) ++counters_.plugs;
}

void ComputeAgent::unplug_both(const Op& op) {
  for (const VmId vm : {op.vm_from, op.vm_to}) {
    if (shm_->unplug(op.region, vm).is_ok()) ++counters_.unplugs;
  }
}

void ComputeAgent::at(const OpKey& key, TimeNs delay_ns,
                      std::function<void(Op&)> fn) {
  runtime_->schedule(delay_ns, [this, key, fn = std::move(fn)] {
    if (auto it = ops_.find(key); it != ops_.end()) fn(it->second);
  });
}

// ------------------------------------------------------------ requests

void ComputeAgent::request_bypass_setup(
    const vswitch::BypassSetupRequest& request) {
  auto from_it = port_vm_.find(request.from);
  auto to_it = port_vm_.find(request.to);
  if (from_it == port_vm_.end() || to_it == port_vm_.end()) {
    HW_LOG(kError, "agent", "setup %u->%u: unknown VM mapping", request.from,
           request.to);
    ++counters_.setup_failures;
    if (sink_ != nullptr) {
      sink_->on_bypass_ready(request.from, request.to, false);
    }
    return;
  }
  ++counters_.setups;
  start(Op{.from = request.from,
           .to = request.to,
           .region = request.region,
           .epoch = request.epoch,
           .rule_slot = request.rule_slot,
           .hotplug = request.plug_required,
           .vm_from = from_it->second,
           .vm_to = to_it->second,
           .steps = kSetupSteps});
}

void ComputeAgent::request_bypass_teardown(
    const vswitch::BypassTeardownRequest& request) {
  Op op{.teardown = true,
        .from = request.from,
        .to = request.to,
        .region = request.region,
        .hotplug = request.unplug_after,
        .steps = std::span(kTeardownSteps)
                     .first(request.unplug_after ? 4 : 3)};
  if (auto it = port_vm_.find(request.from); it != port_vm_.end()) {
    op.vm_from = it->second;
  }
  if (auto it = port_vm_.find(request.to); it != port_vm_.end()) {
    op.vm_to = it->second;
  }
  ++counters_.teardowns;
  start(std::move(op));
}

void ComputeAgent::start(Op op) {
  const OpKey key{op.teardown, next_op_++};
  ops_.emplace(key, std::move(op));
  // The unix-socket hop from ovs-vswitchd to the agent.
  runtime_->schedule(latency_.request_rtt_ns, [this, key] { arrive(key); });
}

void ComputeAgent::arrive(const OpKey& key) {
  auto it = ops_.find(key);
  if (it == ops_.end()) return;
  Op& op = it->second;
  // Stamped in an event callback, compared in poll(): two different
  // contexts, so the deadline must use the cross-context clock.
  op.deadline = runtime_->epoch_start_ns() + kOpTimeoutNs;
  if (op.teardown || !op.hotplug) return;
  // Sequential QEMU ivshmem hot-plug into both VMs, each followed by the
  // guest's PCI rescan before the device is usable. A second direction
  // finds the region its sibling plugged.
  const TimeNs per_vm = latency_.qemu_plug_ns + latency_.pci_scan_ns;
  at(key, per_vm, [this, key, per_vm](Op& first) {
    plug(first, first.vm_from);
    at(key, per_vm, [this](Op& second) { plug(second, second.vm_to); });
  });
}

// ---------------------------------------------------------------- steps

bool ComputeAgent::advance(const OpKey& key, Op& op) {
  if (op.deadline == 0) return false;  // request still in flight
  const Step& step = op.steps[op.step];
  switch (step.kind) {
    case StepKind::kPlugged: {
      shm::ShmRegion* region = shm_->find(op.region);
      if (region == nullptr || !region->is_plugged(op.vm_from) ||
          !region->is_plugged(op.vm_to)) {
        return false;
      }
      break;
    }
    case StepKind::kCtrl:
      if (!exchange(key, op)) return false;
      if (op.phase == Phase::kNacked) {
        ++counters_.ctrl_nacks;
        if (!op.teardown) {  // an attach refused: the setup fails
          op.failed = true;
          return true;
        }
        if (step.op == CtrlOp::kDetachBypassRx) {
          // A frame slipped in between our emptiness check and the PMD's
          // own: the PMD refuses to detach a non-empty ring. Drain again.
          ++counters_.drain_retries;
          --op.step;
          op.phase = Phase::kIdle;
          return false;
        }
        // A refused TX detach (e.g. TX never attached): carry on.
      }
      break;
    case StepKind::kDrained:
      // TX quiesced; the RX-side PMD keeps polling the bypass. Wait until
      // every in-flight frame has been consumed.
      if (!region_ring_empty(op)) return false;
      break;
    case StepKind::kUnplugged:
      if (op.phase == Phase::kIdle) {
        op.phase = Phase::kArming;
        // Two sequential QEMU device_del operations.
        at(key, 2 * latency_.qemu_unplug_ns, [this](Op& unplugging) {
          unplug_both(unplugging);
          unplugging.phase = Phase::kDone;
        });
      }
      if (op.phase != Phase::kDone) return false;
      break;
  }
  ++op.step;
  op.phase = Phase::kIdle;
  return op.step == op.steps.size();
}

bool ComputeAgent::exchange(const OpKey& key, Op& op) {
  const Step& step = op.steps[op.step];
  switch (op.phase) {
    case Phase::kIdle:
      op.seq = next_seq_++;
      op.phase = Phase::kArming;
      at(key, latency_.serial_rtt_ns,
         [](Op& arming) { arming.phase = Phase::kArmed; });
      return false;
    case Phase::kArmed: {
      CtrlMsg msg;
      msg.op = step.op;
      msg.seq = op.seq;
      msg.set_region(op.region);
      if (!op.teardown) {
        // An attach names the other end, the rule's stats slot and the
        // channel epoch the PMD validates.
        msg.peer_port = step.rx_side ? op.from : op.to;
        msg.rule_slot = op.rule_slot;
        msg.epoch = op.epoch;
      }
      if (send_ctrl(step.rx_side ? op.to : op.from, msg)) {
        op.phase = Phase::kAwaiting;
      }
      return false;
    }
    case Phase::kArming:
    case Phase::kAwaiting:
      return false;
    case Phase::kDone:
    case Phase::kNacked:
      return true;
  }
  return false;
}

void ComputeAgent::finish(const Op& op) {
  if (op.teardown) {
    HW_LOG(kInfo, "agent", "bypass %u->%u dismantled", op.from, op.to);
    if (sink_ != nullptr) sink_->on_bypass_torn_down(op.from, op.to);
    return;
  }
  if (!op.failed) {
    ++counters_.setups_ok;
    HW_LOG(kInfo, "agent", "bypass %u->%u configured (region %s)", op.from,
           op.to, op.region.c_str());
  } else {
    ++counters_.setup_failures;
    // Best-effort rollback so the manager can destroy the region: detach
    // the RX side if it got attached (the op reached the TX attach), undo
    // our plugs.
    if (op.steps[op.step].op == CtrlOp::kAttachBypassTx) {
      CtrlMsg msg;
      msg.op = CtrlOp::kDetachBypassRx;
      msg.seq = next_seq_++;
      msg.set_region(op.region);
      (void)send_ctrl(op.to, msg);
    }
    if (op.hotplug) unplug_both(op);
  }
  if (sink_ != nullptr) sink_->on_bypass_ready(op.from, op.to, !op.failed);
}

// ----------------------------------------------------------------- poll

std::uint32_t ComputeAgent::poll(exec::CycleMeter& meter) {
  meter.charge(25);
  if (ops_.empty()) return 0;
  collect_acks();

  std::uint32_t finished = 0;
  const TimeNs now = runtime_->epoch_start_ns();
  for (auto it = ops_.begin(); it != ops_.end();) {
    Op& op = it->second;
    if (op.deadline != 0 && now > op.deadline &&
        op.steps[op.step].kind != StepKind::kUnplugged) {
      // A setup fails; a teardown completes forcibly, which keeps the
      // switch consistent.
      ++counters_.timeouts;
      op.failed = true;
    } else if (!advance(it->first, op)) {
      ++it;
      continue;
    }
    // finish() may request new ops; inserting leaves `it` valid, and a
    // new op ordered after this one is still visited in this pass.
    finish(op);
    it = ops_.erase(it);
    ++finished;
  }
  return finished;
}

}  // namespace hw::agent
