#include "counters.h"

#include "chain.h"

namespace hb {

CounterSet read_counters(Chain& chain) {
  CounterSet c;
  for (const hw::vm::GenSinkApp* app : {&chain.head(), &chain.tail()}) {
    const hw::vm::AppCounters& a = app->counters();
    c["app.generated"] += a.generated;
    c["app.delivered"] += a.delivered;
    c["app.delivered_bytes"] += a.delivered_bytes;
    c["app.tx_drops"] += a.tx_drops;
    c["app.reorders"] += a.reorders;
    c["app.alloc_failures"] += a.alloc_failures;
    c["pkt.offered"] += app->workload_stats().offered;
    c["pkt.distinct_flows"] += app->workload_stats().distinct_flows;
  }
  for (const hw::vm::ForwarderApp* app : chain.forwarders()) {
    c["app.forwarded"] += app->counters().forwarded;
    c["app.tx_drops"] += app->counters().tx_drops;
  }

  hw::vswitch::OfSwitch& of = chain.of();
  for (const auto& engine : of.engines()) {
    const hw::vswitch::EngineCounters e = engine->counters();
    c["engine.rx_packets"] += e.rx_packets;
    c["engine.tx_packets"] += e.tx_packets;
    c["engine.drops"] +=
        e.misses + e.action_drops + e.tx_ring_full + e.rss_queue_drops;
    const hw::classifier::MegaflowCache& mf = engine->classifier().megaflow();
    c["megaflow.capacity_evictions"] += mf.stats().capacity_evictions;
    c["megaflow.entries"] += mf.entry_count();
    c["megaflow.subtables"] += mf.subtable_count();
  }
  const hw::classifier::TierCounters t = of.datapath_stats();
  c["tier.emc_hits"] = t.emc_hits;
  c["tier.emc_misses"] = t.emc_misses;
  c["tier.megaflow_hits"] = t.megaflow_hits;
  c["tier.megaflow_misses"] = t.megaflow_misses;
  c["tier.megaflow_inserts"] = t.megaflow_inserts;
  c["tier.megaflow_invalidations"] = t.megaflow_invalidations;
  c["tier.megaflow_revalidations"] = t.megaflow_revalidations;
  c["tier.megaflow_revalidation_evictions"] =
      t.megaflow_revalidation_evictions;
  c["tier.emc_revalidations"] = t.emc_revalidations;
  c["tier.slow_path_lookups"] = t.slow_path_lookups;
  c["tier.slow_path_misses"] = t.slow_path_misses;
  c["tier.sig_hits"] = t.sig_hits;
  c["tier.sig_false_positives"] = t.sig_false_positives;
  c["tier.batches"] = t.batches;
  c["tier.batch_packets"] = t.batch_packets;
  c["tier.reval_batches"] = t.reval_batches;
  c["tier.reval_entries_scanned"] = t.reval_entries_scanned;
  c["tier.reval_coalesced_events"] = t.reval_coalesced_events;
  c["tier.cache_resizes"] = t.cache_resizes;
  c["tier.simd_blocks"] = t.simd_blocks;
  c["tier.subtables_skipped"] = t.subtables_skipped;
  c["tier.prefilter_false_positives"] = t.prefilter_false_positives;

  for (const hw::exec::ContextReport& r : chain.runtime().reports()) {
    const std::string key = "ctx." + r.name;
    c[key + ".polls"] = r.polls;
    c[key + ".idle_polls"] = r.idle_polls;
    c[key + ".items"] = r.items;
    c[key + ".cycles"] = r.busy_cycles;
  }

  hw::vm::Hypervisor& hypervisor = chain.hypervisor();
  for (std::size_t v = 0; v < hypervisor.vm_count(); ++v) {
    hw::vm::Vm& guest = hypervisor.vm(v);
    for (std::size_t p = 0; p < guest.port_count(); ++p) {
      const hw::pmd::PmdCounters& pmd = guest.pmd(p).counters();
      c["pmd.rx_normal"] += pmd.rx_normal;
      c["pmd.rx_bypass"] += pmd.rx_bypass;
      c["pmd.tx_normal"] += pmd.tx_normal;
      c["pmd.tx_bypass"] += pmd.tx_bypass;
      c["pmd.tx_rejected"] += pmd.tx_rejected;
      c["pmd.ctrl_cmds"] += pmd.ctrl_cmds;
      c["pmd.ctrl_errors"] += pmd.ctrl_errors;
    }
  }

  const hw::vswitch::BypassManager& bypass = of.bypass_manager();
  const hw::vswitch::BypassCounters& b = bypass.counters();
  c["bypass.setups_requested"] = b.setups_requested;
  c["bypass.setups_completed"] = b.setups_completed;
  c["bypass.setups_failed"] = b.setups_failed;
  c["bypass.teardowns_requested"] = b.teardowns_requested;
  c["bypass.teardowns_completed"] = b.teardowns_completed;
  c["bypass.setups_deferred"] = b.setups_deferred_inflight +
                                b.setups_deferred_region +
                                b.setups_deferred_fanin;
  c["bypass.active_links"] = bypass.active_links();

  const hw::agent::AgentCounters& a = chain.agent().counters();
  c["agent.setups"] = a.setups;
  c["agent.setup_failures"] = a.setup_failures;
  c["agent.teardowns"] = a.teardowns;
  c["agent.ctrl_sent"] = a.ctrl_sent;
  c["agent.ctrl_nacks"] = a.ctrl_nacks;
  c["agent.drain_retries"] = a.drain_retries;
  c["agent.timeouts"] = a.timeouts;

  c["shm.regions_created"] = chain.shm().stats().regions_created;
  c["shm.regions_live"] = chain.shm().region_count();
  c["switch.flow_mods"] = of.counters().flow_mods;
  c["switch.message_errors"] = of.counters().message_errors;
  c["flowtable.rules"] = of.table().size();

  const hw::mbuf::MempoolStats pool = chain.pool().stats();
  c["mbuf.allocs"] = pool.allocs;
  c["mbuf.frees"] = pool.frees;
  c["mbuf.alloc_failures"] = pool.alloc_failures;
  c["mbuf.in_use"] = chain.pool().in_use();

  c["ctl.flowmods"] = chain.flowmods_sent();
  c["ctl.flips"] = chain.flips_sent();
  c["ctl.flowmod_errors"] = chain.flowmod_errors();
  return c;
}

CounterSet delta(const CounterSet& end, const CounterSet& start) {
  CounterSet out;
  for (const auto& [key, value] : end) {
    const auto it = start.find(key);
    out[key] = value - (it == start.end() ? 0 : it->second);
  }
  return out;
}

std::string diff_keys(const CounterSet& a, const CounterSet& b,
                      bool work_only) {
  std::string out;
  const auto note = [&](const std::string& key, std::uint64_t va,
                        std::uint64_t vb) {
    if (work_only && key.ends_with(".cycles")) return;
    out += " " + key + "(" + std::to_string(va) + "!=" + std::to_string(vb) +
           ")";
  };
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    const std::uint64_t other = it == b.end() ? 0 : it->second;
    if (value != other) note(key, value, other);
  }
  for (const auto& [key, value] : b) {
    if (!a.contains(key) && value != 0) note(key, 0, value);
  }
  return out;
}

}  // namespace hb
