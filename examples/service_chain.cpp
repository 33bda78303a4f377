/// \file service_chain.cpp
/// The paper's Figure 1 service graph, built directly on the public API
/// (switch + hypervisor + apps, no ChainScenario helper):
///
///     NIC ──> firewall ──> network monitor ──┬─ web traffic ─> web cache ─> NIC
///                                            └─ non-web ─────────────────> NIC
///
/// The firewall→monitor segment is a pure point-to-point link, so the
/// detector establishes a bypass there. The monitor's egress port carries
/// a *conditional* split (TCP/80 to the cache, everything else straight
/// out), so the detector — correctly — leaves that segment on the normal
/// path. This demonstrates that acceleration is selective and safe: only
/// segments whose rules make the vSwitch redundant are bypassed. The
/// example exits non-zero when no link comes up or the decisions differ.

#include <cstdio>
#include <memory>

#include "agent/compute_agent.h"
#include "common/log.h"
#include "exec/runtime.h"
#include "nic/sim_nic.h"
#include "openflow/codec.h"
#include "pkt/headers.h"
#include "vm/apps.h"
#include "vm/vm.h"
#include "vswitch/of_switch.h"

using namespace hw;  // example code; the library itself never does this

int main() {
  set_log_level(LogLevel::kInfo);

  const exec::CostModel cost;
  shm::ShmManager shm;
  mbuf::Mempool pool("mb0", 32 * 1024);
  exec::SimRuntime runtime({.epoch_ns = 1000, .cost = cost});

  vswitch::OfSwitch of(shm, pool, runtime, cost,
                       {.ring_capacity = 1024,
                        .engine_count = 2,
                        .bypass_enabled = true});
  agent::ComputeAgent agent(shm, runtime);
  agent.set_event_sink(&of.bypass_manager());
  of.bypass_manager().set_agent(&agent);
  vm::Hypervisor hypervisor(shm, agent, cost);

  // --- NICs: ingress carries a 30% web / 70% non-web mix ------------------
  pkt::TrafficProfile mix;
  mix.flow_count = 32;
  mix.web_percent = 30;
  const nic::NicConfig nic_config;
  nic::SimNic nic_in("nic.in", nic_config, runtime, cost, pool, mix);
  nic::SimNic nic_out("nic.out", nic_config, runtime, cost, pool, mix,
                      /*generate=*/false);

  const PortId wan = of.add_phy_port("wan", nic_in).value();

  // --- three VNFs, two dpdkr ports each -----------------------------------
  struct Vnf {
    const char* name;
    std::uint32_t cycles;  // per-packet work beyond a plain forwarder's
    PortId in = 0, out = 0;
    vm::Vm* guest = nullptr;
    exec::CostModel cost{};  // its app's model: vm_app_per_pkt + cycles
  };
  Vnf vnfs[] = {{"firewall", 120}, {"monitor", 60}, {"webcache", 300}};
  for (Vnf& vnf : vnfs) {
    vnf.guest = &hypervisor.create_vm(vnf.name);
    vnf.in = of.add_dpdkr_port(std::string(vnf.name) + ".in").value();
    vnf.out = of.add_dpdkr_port(std::string(vnf.name) + ".out").value();
    if (!hypervisor.attach_port(*vnf.guest, vnf.in).is_ok() ||
        !hypervisor.attach_port(*vnf.guest, vnf.out).is_ok()) {
      std::fprintf(stderr, "attach failed for %s\n", vnf.name);
      return 1;
    }
  }
  const PortId lan = of.add_phy_port("lan", nic_out).value();

  // --- steering rules (sent through the OpenFlow wire codec) --------------
  auto send = [&](const openflow::FlowMod& mod) {
    const auto bytes = openflow::encode_flow_mod(mod);
    if (!of.handle_message(bytes).is_ok()) std::abort();
  };
  Cookie cookie = 1;
  send(openflow::make_p2p_flowmod(wan, vnfs[0].in, 100, cookie++));
  // firewall -> monitor: a genuine p-2-p link, the detector will bypass it.
  send(openflow::make_p2p_flowmod(vnfs[0].out, vnfs[1].in, 100, cookie++));
  // monitor egress: web traffic to the cache, the rest straight out — NOT
  // a p-2-p link (two rules share the in_port), so no bypass here.
  {
    openflow::FlowMod web;
    web.priority = 200;
    web.cookie = cookie++;
    web.match.in_port(vnfs[1].out)
        .eth_type(pkt::kEtherTypeIpv4)
        .ip_proto(pkt::kIpProtoTcp)
        .l4_dst(80);
    web.actions = {openflow::Action::output(vnfs[2].in)};
    send(web);
    send(openflow::make_p2p_flowmod(vnfs[1].out, lan, 100, cookie++));
  }
  send(openflow::make_p2p_flowmod(vnfs[2].out, lan, 100, cookie++));

  // --- guest applications --------------------------------------------------
  std::vector<std::unique_ptr<vm::ForwarderApp>> apps;
  for (Vnf& vnf : vnfs) {
    vnf.cost = cost;
    vnf.cost.vm_app_per_pkt += vnf.cycles;
    apps.push_back(std::make_unique<vm::ForwarderApp>(
        std::string("app.") + vnf.name,
        *vnf.guest->pmd_for_port(vnf.in),
        *vnf.guest->pmd_for_port(vnf.out), pool, vnf.cost));
  }

  runtime.add_context(&nic_in);
  for (exec::Context* engine : of.engine_contexts()) {
    runtime.add_context(engine);
  }
  for (auto& app : apps) runtime.add_context(app.get());
  runtime.add_context(&nic_out);
  runtime.add_context(&agent);

  // --- run -----------------------------------------------------------------
  std::printf("\nwaiting for bypass establishment (~100 ms virtual)...\n");
  if (!runtime.run_until(
          [&] { return of.bypass_manager().active_links() >= 1; },
          400'000'000)) {
    std::fprintf(stderr, "no bypass link came up within 400 ms\n");
    return 1;
  }
  runtime.run_for(20'000'000);  // 20 ms of traffic

  const bool p2p_bypassed =
      of.bypass_manager().link_active(vnfs[0].out, vnfs[1].in);
  const bool split_bypassed =
      of.bypass_manager().links().contains(vnfs[1].out);
  std::printf("\n=== bypass decisions ===\n");
  std::printf("firewall.out -> monitor.in bypassed: %s\n",
              p2p_bypassed ? "YES (pure p-2-p link)" : "no");
  std::printf("monitor.out  -> (split)    bypassed: %s\n",
              split_bypassed ? "yes (BUG!)"
                             : "NO (conditional split needs the classifier)");

  std::printf("\n=== flow statistics (merged, via wire protocol) ===\n");
  const auto stats_reply =
      of.handle_message(openflow::encode_flow_stats_request(7));
  const auto entries =
      openflow::decode_flow_stats_reply(stats_reply.value()).value();
  for (const auto& entry : entries) {
    std::printf("  cookie=%llu  %-44s  %10llu pkts\n",
                static_cast<unsigned long long>(entry.cookie),
                entry.match.to_string().c_str(),
                static_cast<unsigned long long>(entry.packet_count));
  }
  const pkt::EndpointCounters& lan_side = nic_out.endpoint().counters();
  std::printf("\ndelivered to LAN: %llu frames (%llu reordered)\n",
              static_cast<unsigned long long>(lan_side.delivered),
              static_cast<unsigned long long>(lan_side.reorders));
  // Exactly the pure p-2-p link is bypassed, or the detector is wrong.
  return p2p_bypassed && !split_bypassed ? 0 : 1;
}
