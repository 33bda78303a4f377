#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "classifier/dp_classifier.h"
#include "common/rng.h"
#include "common/sampler.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "openflow/messages.h"
#include "pkt/headers.h"
#include "vswitch/p2p_detector.h"
#include "vswitch/rss.h"

/// \file classifier_equiv_test.cpp
/// DIFFERENTIAL CLASSIFIER-EQUIVALENCE FUZZER. The wildcard table alone
/// (FlowTable::lookup) is the semantic oracle: whatever caching, signature
/// prefiltering, batching or revalidation the three-tier DpClassifier
/// performs, it must return exactly the rule the oracle picks for every
/// packet — across random rule sets, FlowMod churn and random packet
/// streams. Four classifier variants are compared against the oracle on
/// the same stream:
///
///   * single     — lookup() per packet (a batch of one), defaults;
///   * batched    — lookup_batch() over 32-packet batches;
///   * scalar-scan— lookup() per packet with sig_scan_mode = kScalar, so
///                  the portable signature loop must agree bit-for-bit
///                  with the SIMD block scan the default variants run;
///   * nopf       — lookup() per packet with the subtable prefilter off,
///                  proving a Bloom skip never hides an entry (and that
///                  the default variants' skips never change a result).
///
/// Every variant drains FlowMod churn through the coalesced revalidator
/// (unioned DELETE ids, containment-merged ADD masks), so agreement with
/// the oracle on every packet is also the mask-merge soundness proof.
///
/// Seeds are fixed (deterministic, reproducible); every assertion carries
/// the reproducing seed, and instances are named by it, so a failure is a
/// one-line repro: seed 0xf00b reruns with `--gtest_filter=*seed_f00b*`.

namespace hw::classifier {
namespace {

using flowtable::FlowEntry;
using flowtable::FlowTable;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;

constexpr PortId kPorts = 6;
constexpr std::size_t kBatch = 32;
constexpr std::uint64_t kMinPackets = 10'000;

/// Random FlowMod biased toward overlap: catch-alls, port steering, L4
/// selectors and mixed-length IP prefixes — maximal mask diversity and
/// maximal chance of priority shadowing (the cases where a stale or
/// mis-probed cache entry would disagree with the oracle).
FlowMod random_mod(Rng& rng) {
  FlowMod mod;
  const std::uint64_t op = rng.next_below(10);
  if (op < 6) {
    mod.command = FlowModCommand::kAdd;
  } else if (op < 7) {
    mod.command = FlowModCommand::kModify;
  } else if (op < 8) {
    mod.command = FlowModCommand::kModifyStrict;
  } else if (op < 9) {
    mod.command = FlowModCommand::kDelete;
  } else {
    mod.command = FlowModCommand::kDeleteStrict;
  }
  mod.priority = static_cast<std::uint16_t>(rng.next_below(6) * 50);
  mod.cookie = rng.next();
  if (rng.chance(4, 5)) {
    mod.match.in_port(static_cast<PortId>(1 + rng.next_below(kPorts)));
  }
  if (rng.chance(1, 3)) {
    mod.match.ip_proto(rng.chance(1, 2) ? pkt::kIpProtoUdp
                                        : pkt::kIpProtoTcp);
  }
  if (rng.chance(1, 3)) {
    mod.match.l4_dst(static_cast<std::uint16_t>(80 + rng.next_below(3)));
  }
  if (rng.chance(1, 4)) {
    const std::uint8_t plens[] = {8, 16, 24, 32};
    mod.match.ip_dst(0x0a000000u | static_cast<std::uint32_t>(
                                       rng.next_below(4) << 16),
                     plens[rng.next_below(4)]);
  }
  mod.actions = {
      Action::output(static_cast<PortId>(1 + rng.next_below(kPorts)))};
  return mod;
}

pkt::FlowKey random_key(Rng& rng) {
  pkt::FlowKey key;
  key.in_port = static_cast<PortId>(1 + rng.next_below(kPorts));
  key.ether_type = pkt::kEtherTypeIpv4;
  key.ip_proto = rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp;
  key.src_ip = 0xc0a80000u | static_cast<std::uint32_t>(rng.next_below(32));
  key.dst_ip = 0x0a000000u |
               static_cast<std::uint32_t>(rng.next_below(4) << 16) |
               static_cast<std::uint32_t>(rng.next_below(16));
  key.src_port = 1234;
  key.dst_port =
      rng.chance(1, 2) ? static_cast<std::uint16_t>(79 + rng.next_below(4))
                       : 5000;
  return key;
}

RuleId id_of(const FlowEntry* entry) {
  return entry == nullptr ? kRuleNone : entry->id;
}

class ClassifierEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifierEquivalenceTest, AllPathsAgreeWithWildcardOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  exec::CostModel cost;
  FlowTable table;

  DpClassifier single(table, cost);
  DpClassifier batched(table, cost);
  DpClassifierConfig scalarscan_config;
  scalarscan_config.megaflow.sig_scan_mode = SigScanMode::kScalar;
  DpClassifier scalar_scan(table, cost, scalarscan_config);
  DpClassifierConfig nopf_config;
  nopf_config.megaflow.subtable_prefilter = false;
  DpClassifier scalar_nopf(table, cost, nopf_config);
  exec::CycleMeter meter;

  // Keys recycle through a pool so the cache tiers genuinely serve hits
  // between table changes; a fresh random key every few packets keeps
  // megaflow installs coming.
  std::vector<pkt::FlowKey> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(random_key(rng));

  std::vector<pkt::FlowKey> keys(kBatch);
  std::vector<std::uint32_t> hashes(kBatch);
  std::vector<LookupOutcome> outcomes(kBatch);

  std::uint64_t packets = 0;
  for (std::uint64_t round = 0; packets < kMinPackets; ++round) {
    const std::uint64_t mods = rng.next_below(3);
    for (std::uint64_t i = 0; i < mods; ++i) {
      (void)table.apply(random_mod(rng));  // no-op mods are fine too
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (rng.chance(1, 8)) pool[rng.next_below(pool.size())] = random_key(rng);
      keys[i] = pool[rng.next_below(pool.size())];
      hashes[i] = pkt::flow_key_hash(keys[i]);
    }

    batched.lookup_batch(keys, hashes, outcomes, meter);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const RuleId oracle = id_of(table.lookup(keys[i]));
      const RuleId got_single =
          id_of(single.lookup(keys[i], hashes[i], meter).entry);
      const RuleId got_batched = id_of(outcomes[i].entry);
      const RuleId got_scalarscan =
          id_of(scalar_scan.lookup(keys[i], hashes[i], meter).entry);
      const RuleId got_nopf =
          id_of(scalar_nopf.lookup(keys[i], hashes[i], meter).entry);
      ASSERT_EQ(got_single, oracle)
          << "seed " << seed << " round " << round << " pkt " << i
          << ": one-key lookup diverged from the wildcard-table oracle";
      ASSERT_EQ(got_batched, oracle)
          << "seed " << seed << " round " << round << " pkt " << i
          << ": 32-packet batch diverged from the oracle";
      ASSERT_EQ(got_scalarscan, oracle)
          << "seed " << seed << " round " << round << " pkt " << i
          << ": portable scalar signature scan diverged from the oracle "
             "(SIMD and scalar scans must be bit-identical)";
      ASSERT_EQ(got_nopf, oracle)
          << "seed " << seed << " round " << round << " pkt " << i
          << ": no-prefilter baseline diverged from the oracle (a Bloom "
             "skip in the default variants would be unsound if these "
             "disagree)";
    }
    packets += kBatch;
  }

  // The comparison is only meaningful if the cached tiers (not just the
  // slow path) actually served packets, on both the one-key and the
  // batched classifier, and if each really classified in its batch size.
  EXPECT_GT(single.counters().emc_hits + single.counters().megaflow_hits, 0u)
      << "seed " << seed;
  EXPECT_GT(batched.counters().emc_hits + batched.counters().megaflow_hits,
            0u)
      << "seed " << seed;
  EXPECT_GT(single.counters().sig_hits, 0u) << "seed " << seed;
  EXPECT_EQ(single.counters().batches, packets) << "seed " << seed;
  EXPECT_GE(batched.counters().batches, kMinPackets / kBatch)
      << "seed " << seed;
  EXPECT_EQ(batched.counters().batch_packets, packets) << "seed " << seed;
  // The coalesced revalidator must have genuinely run drains.
  EXPECT_GT(single.counters().reval_batches, 0u) << "seed " << seed;
  // The SIMD/prefilter machinery must have genuinely run: the default
  // variants scanned SIMD blocks (when this binary compiled a backend
  // in) and skipped provably clean subtables; the ablation variants
  // never touched either path.
  if (simd::kSimdCompiledIn) {
    EXPECT_GT(single.counters().simd_blocks, 0u) << "seed " << seed;
  } else {
    EXPECT_EQ(single.counters().simd_blocks, 0u) << "seed " << seed;
  }
  EXPECT_EQ(scalar_scan.counters().simd_blocks, 0u) << "seed " << seed;
  EXPECT_GT(single.counters().subtables_skipped, 0u) << "seed " << seed;
  EXPECT_EQ(scalar_nopf.counters().subtables_skipped, 0u) << "seed " << seed;
}

/// SHARDED N-ENGINE VARIANT (multi-PMD scale-out, docs/SCALEOUT.md).
/// Every packet is hashed through a live RssTable to one of four
/// per-engine classifiers — all subscribed to the SAME FlowTable, so the
/// change subscription is exercised as a genuine multi-subscriber
/// fan-out — and whichever engine a packet lands on must return exactly
/// the wildcard-oracle verdict, across FlowMod churn, mixed engine
/// configurations (engine 1 runs without the subtable prefilter, engine
/// 2 with the portable scalar signature scan) and random bucket
/// migrations mid-stream (the auto-load-balance handoff). Engine 3
/// classifies its share through lookup_batch, the others one packet at
/// a time, so the stream also mixes batch sizes.
TEST_P(ClassifierEquivalenceTest, ShardedEnginePoolAgreesWithOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5ca1ed0ULL);  // distinct stream from the other variant
  exec::CostModel cost;
  FlowTable table;

  constexpr std::uint32_t kEngines = 4;
  DpClassifier engine0(table, cost);
  DpClassifierConfig nopf_config;
  nopf_config.megaflow.subtable_prefilter = false;
  DpClassifier engine1(table, cost, nopf_config);
  DpClassifierConfig scalarscan_config;
  scalarscan_config.megaflow.sig_scan_mode = SigScanMode::kScalar;
  DpClassifier engine2(table, cost, scalarscan_config);
  DpClassifier engine3(table, cost);
  DpClassifier* engines[kEngines] = {&engine0, &engine1, &engine2, &engine3};

  vswitch::RssTable rss(/*buckets=*/64, kEngines);
  exec::CycleMeter meter;

  std::vector<pkt::FlowKey> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(random_key(rng));

  // Per-engine shares of the current burst (indices into keys/hashes).
  std::vector<std::size_t> share[kEngines];
  std::vector<pkt::FlowKey> keys(kBatch);
  std::vector<std::uint32_t> hashes(kBatch);
  std::vector<pkt::FlowKey> batch_keys;
  std::vector<std::uint32_t> batch_hashes;
  std::vector<LookupOutcome> batch_out;

  std::uint64_t shard_counts[kEngines] = {0, 0, 0, 0};
  std::uint64_t migrations = 0;

  std::uint64_t packets = 0;
  for (std::uint64_t round = 0; packets < kMinPackets; ++round) {
    const std::uint64_t mods = rng.next_below(3);
    for (std::uint64_t i = 0; i < mods; ++i) {
      (void)table.apply(random_mod(rng));
    }
    // Rebalance events: random bucket handoffs between bursts, the
    // distribution-stream boundary where auto-lb migrations land.
    if (rng.chance(1, 4)) {
      rss.migrate(static_cast<std::uint32_t>(rng.next_below(64)),
                  static_cast<std::uint32_t>(rng.next_below(kEngines)));
      ++migrations;
    }

    for (auto& s : share) s.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (rng.chance(1, 8)) pool[rng.next_below(pool.size())] = random_key(rng);
      keys[i] = pool[rng.next_below(pool.size())];
      hashes[i] = pkt::flow_key_hash(keys[i]);
      const std::uint32_t owner =
          rss.owner_of(vswitch::RssTable::hash(keys[i]));
      share[owner].push_back(i);
      ++shard_counts[owner];
    }

    for (std::uint32_t e = 0; e < kEngines; ++e) {
      if (e == 3) {
        // Engine 3 classifies its share as one batch (the dpcls batch
        // loop a real RSS consumer runs per queue drain).
        batch_keys.clear();
        batch_hashes.clear();
        for (const std::size_t i : share[e]) {
          batch_keys.push_back(keys[i]);
          batch_hashes.push_back(hashes[i]);
        }
        batch_out.resize(batch_keys.size());
        engines[e]->lookup_batch(batch_keys, batch_hashes, batch_out, meter);
        for (std::size_t j = 0; j < share[e].size(); ++j) {
          const std::size_t i = share[e][j];
          ASSERT_EQ(id_of(batch_out[j].entry), id_of(table.lookup(keys[i])))
              << "seed " << seed << " round " << round << " pkt " << i
              << ": sharded batched engine " << e
              << " diverged from the wildcard-table oracle";
        }
        continue;
      }
      for (const std::size_t i : share[e]) {
        const RuleId oracle = id_of(table.lookup(keys[i]));
        const RuleId got =
            id_of(engines[e]->lookup(keys[i], hashes[i], meter).entry);
        ASSERT_EQ(got, oracle)
            << "seed " << seed << " round " << round << " pkt " << i
            << ": sharded engine " << e
            << " diverged from the wildcard-table oracle";
      }
    }
    packets += kBatch;
  }

  // The shard spread must be real (every engine classified packets) and
  // rebalancing must have actually happened for the run to prove the
  // migration path.
  EXPECT_GT(migrations, 0u) << "seed " << seed;
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    EXPECT_GT(shard_counts[e], 0u)
        << "seed " << seed << ": engine " << e << " never owned a packet";
    // Fan-out proof: every engine's own revalidator consumed the same
    // churn (coalesced drains ran), served cache hits, and never once
    // fell back to a whole-cache flush.
    EXPECT_GT(engines[e]->counters().reval_batches, 0u)
        << "seed " << seed << " engine " << e;
    EXPECT_GT(engines[e]->counters().emc_hits +
                  engines[e]->counters().megaflow_hits,
              0u)
        << "seed " << seed << " engine " << e;
    EXPECT_EQ(engines[e]->counters().megaflow_invalidations, 0u)
        << "seed " << seed << " engine " << e
        << ": sharding must never cost a whole-cache flush";
  }
}

/// BYPASS-ENABLED VARIANT (transparent inter-VNF bypass, docs/BYPASS.md).
/// An IncrementalP2pDetector rides the same FlowTable's change stream the
/// bypass manager uses in production. Packets whose in_port holds an
/// active detector link take the highway — they are delivered straight to
/// `link.to` WITHOUT classification — and everything else lands on a
/// sharded one-key/batched engine pair. Transparency is the differential
/// claim: for every bypassed packet the wildcard oracle must pick exactly
/// the link's rule, and that rule's action must be a single OUTPUT to
/// exactly `link.to` — i.e. the highway forwards precisely what the
/// classifier would have, under p2p-rule churn, diverter shadowing and
/// random deletes that flip ports between bypassed and classified
/// mid-stream.
TEST_P(ClassifierEquivalenceTest, BypassHighwayAgreesWithWildcardOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xb7ba55ULL);  // distinct stream from the other variants
  exec::CostModel cost;
  FlowTable table;

  vswitch::IncrementalP2pDetector detector(
      [](PortId) { return true; });  // every test port is dpdkr-eligible
  for (PortId port = 1; port <= kPorts; ++port) {
    detector.add_candidate_port(port);
  }
  detector.reset(table);
  const auto token =
      table.subscribe([&](const flowtable::TableChangeEvent& event) {
        detector.on_event(event, table);
      });

  constexpr std::uint32_t kEngines = 2;
  DpClassifier engine0(table, cost);
  DpClassifier engine1(table, cost);  // classifies its share via batches
  vswitch::RssTable rss(/*buckets=*/64, kEngines);
  exec::CycleMeter meter;

  std::vector<pkt::FlowKey> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(random_key(rng));

  // Installed p2p steering rules, so deletes hit real ones and flip
  // their port back to the classified path.
  struct P2pRule {
    PortId from, to;
    std::uint16_t priority;
  };
  std::vector<P2pRule> p2p_rules;

  std::vector<pkt::FlowKey> keys(kBatch);
  std::vector<std::uint32_t> hashes(kBatch);
  std::vector<pkt::FlowKey> batch_keys;
  std::vector<std::uint32_t> batch_hashes;
  std::vector<LookupOutcome> batch_out;

  std::uint64_t bypassed = 0;
  std::uint64_t classified = 0;
  std::uint64_t links_seen = 0;

  std::uint64_t packets = 0;
  for (std::uint64_t round = 0; packets < kMinPackets; ++round) {
    const std::uint64_t mods = rng.next_below(3);
    for (std::uint64_t i = 0; i < mods; ++i) {
      (void)table.apply(random_mod(rng));
    }
    // p2p churn: install a steering rule above the random-mod priority
    // band (so links actually form), or strict-delete an installed one
    // (so links actually break).
    if (rng.chance(1, 3)) {
      const PortId from = static_cast<PortId>(1 + rng.next_below(kPorts));
      PortId to = static_cast<PortId>(1 + rng.next_below(kPorts));
      if (to == from) to = static_cast<PortId>(1 + (from % kPorts));
      const auto priority =
          static_cast<std::uint16_t>(300 + 50 * rng.next_below(2));
      (void)table.apply(
          openflow::make_p2p_flowmod(from, to, priority, rng.next()));
      p2p_rules.push_back({from, to, priority});
    } else if (!p2p_rules.empty() && rng.chance(1, 3)) {
      const std::size_t idx = rng.next_below(p2p_rules.size());
      const P2pRule rule = p2p_rules[idx];
      p2p_rules.erase(p2p_rules.begin() + static_cast<std::ptrdiff_t>(idx));
      FlowMod mod =
          openflow::make_p2p_flowmod(rule.from, rule.to, rule.priority, 0);
      mod.command = FlowModCommand::kDeleteStrict;
      (void)table.apply(mod);
    }
    (void)detector.refresh(table);
    links_seen += detector.links().size();

    batch_keys.clear();
    batch_hashes.clear();
    std::vector<std::size_t> batch_idx;
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (rng.chance(1, 8)) pool[rng.next_below(pool.size())] = random_key(rng);
      keys[i] = pool[rng.next_below(pool.size())];
      hashes[i] = pkt::flow_key_hash(keys[i]);

      const auto lit = detector.links().find(keys[i].in_port);
      if (lit != detector.links().end()) {
        // Highway: delivered to link.to with no classifier involvement.
        // Transparency holds iff the oracle would have done the same.
        const vswitch::P2pLink& link = lit->second;
        const FlowEntry* oracle = table.lookup(keys[i]);
        ASSERT_NE(oracle, nullptr)
            << "seed " << seed << " round " << round << " pkt " << i
            << ": bypassed port " << keys[i].in_port
            << " has no oracle verdict at all";
        ASSERT_EQ(oracle->id, link.rule)
            << "seed " << seed << " round " << round << " pkt " << i
            << ": oracle picked a different rule than the detector link "
               "on port "
            << keys[i].in_port << " — the highway would serve stale";
        ASSERT_EQ(oracle->actions.size(), 1u)
            << "seed " << seed << " round " << round << " pkt " << i;
        ASSERT_EQ(oracle->actions[0], Action::output(link.to))
            << "seed " << seed << " round " << round << " pkt " << i
            << ": link rule does not output to the link destination";
        ++bypassed;
        continue;
      }
      // Fallback: sharded classifiers, engine 1 batched.
      if (rss.owner_of(vswitch::RssTable::hash(keys[i])) == 1) {
        batch_keys.push_back(keys[i]);
        batch_hashes.push_back(hashes[i]);
        batch_idx.push_back(i);
      } else {
        const RuleId oracle = id_of(table.lookup(keys[i]));
        ASSERT_EQ(id_of(engine0.lookup(keys[i], hashes[i], meter).entry),
                  oracle)
            << "seed " << seed << " round " << round << " pkt " << i
            << ": fallback one-key engine diverged from the oracle";
      }
      ++classified;
    }
    batch_out.resize(batch_keys.size());
    engine1.lookup_batch(batch_keys, batch_hashes, batch_out, meter);
    for (std::size_t j = 0; j < batch_idx.size(); ++j) {
      ASSERT_EQ(id_of(batch_out[j].entry),
                id_of(table.lookup(keys[batch_idx[j]])))
          << "seed " << seed << " round " << round << " pkt " << batch_idx[j]
          << ": fallback batched engine diverged from the oracle";
    }
    packets += kBatch;
  }
  table.unsubscribe(token);

  // The run must have genuinely exercised both paths and real link churn;
  // an all-classified or all-bypassed stream proves nothing.
  EXPECT_GT(bypassed, 0u) << "seed " << seed << ": no packet took the highway";
  EXPECT_GT(classified, 0u)
      << "seed " << seed << ": no packet took the classifier";
  EXPECT_GT(links_seen, 0u) << "seed " << seed;
  EXPECT_GT(detector.counters().events, 0u) << "seed " << seed;
  EXPECT_GT(engine0.counters().emc_hits + engine0.counters().megaflow_hits,
            0u)
      << "seed " << seed;
}

/// ZIPF+CHURN STREAM VARIANT (workload library, docs/WORKLOADS.md). The
/// packet stream now has the shape the workload engine offers in
/// production: key picks are Zipf(1.1) over the pool — a few slots carry
/// most of the stream and stay EMC/megaflow-resident for thousands of
/// packets — while churn replaces pool slots mid-stream (flow departure +
/// fresh arrival on the same rank) and random FlowMods keep the rule set
/// moving underneath. This is the adversarial case for the cache tiers:
/// long-lived hot entries must survive revalidation bursts unchanged, and
/// a recycled slot must never be served the departed flow's verdict.
TEST_P(ClassifierEquivalenceTest, ZipfChurnStreamAgreesWithWildcardOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x21bf5eedULL);  // distinct stream from the other variants
  exec::CostModel cost;
  FlowTable table;

  DpClassifier single(table, cost);
  DpClassifier batched(table, cost);
  const ZipfSampler zipf(1.1);
  exec::CycleMeter meter;

  std::vector<pkt::FlowKey> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(random_key(rng));

  std::vector<pkt::FlowKey> keys(kBatch);
  std::vector<std::uint32_t> hashes(kBatch);
  std::vector<LookupOutcome> outcomes(kBatch);

  std::uint64_t churned_slots = 0;
  std::uint64_t packets = 0;
  for (std::uint64_t round = 0; packets < kMinPackets; ++round) {
    const std::uint64_t mods = rng.next_below(3);
    for (std::uint64_t i = 0; i < mods; ++i) {
      (void)table.apply(random_mod(rng));
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      // Churn: a departing flow's slot is recycled for a fresh arrival —
      // including hot ranks, so a cached verdict for the old 5-tuple
      // must not leak onto its replacement.
      if (rng.chance(1, 8)) {
        pool[zipf.draw(rng, pool.size())] = random_key(rng);
        ++churned_slots;
      }
      keys[i] = pool[zipf.draw(rng, pool.size())];
      hashes[i] = pkt::flow_key_hash(keys[i]);
    }

    batched.lookup_batch(keys, hashes, outcomes, meter);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const RuleId oracle = id_of(table.lookup(keys[i]));
      ASSERT_EQ(id_of(single.lookup(keys[i], hashes[i], meter).entry), oracle)
          << "seed " << seed << " round " << round << " pkt " << i
          << ": one-key lookup diverged from the oracle on a Zipf+churn "
             "stream";
      ASSERT_EQ(id_of(outcomes[i].entry), oracle)
          << "seed " << seed << " round " << round << " pkt " << i
          << ": batched path diverged from the oracle on a Zipf+churn "
             "stream";
    }
    packets += kBatch;
  }

  // The skewed stream must have genuinely exercised the cache tiers —
  // on a Zipf(1.1) stream the hot head should make the EMC the dominant
  // tier, not an incidental one — and churn must actually have recycled
  // slots for the staleness claim to mean anything.
  EXPECT_GT(churned_slots, 0u) << "seed " << seed;
  EXPECT_GT(single.counters().emc_hits, single.counters().slow_path_lookups)
      << "seed " << seed
      << ": a Zipf head this heavy must resolve mostly in the EMC";
  EXPECT_GT(batched.counters().emc_hits + batched.counters().megaflow_hits,
            0u)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ClassifierEquivalenceTest,
    ::testing::Values(0xf001, 0xf002, 0xf003, 0xf004, 0xf005, 0xf006, 0xf007,
                      0xf008, 0xf009, 0xf00a, 0xf00b, 0xf00c, 0xf00d, 0xf00e,
                      0xf00f, 0xf010, 0xf011, 0xf012, 0xf013, 0xf014),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      char name[32];
      std::snprintf(name, sizeof(name), "seed_%llx",
                    static_cast<unsigned long long>(info.param));
      return std::string(name);
    });

}  // namespace
}  // namespace hw::classifier
