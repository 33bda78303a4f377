#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "flowtable/flow_table.h"

/// \file p2p_detector.h
/// The p-2-p link detector — the paper's core control-plane contribution.
///
/// After every FlowMod the detector re-derives, from the rule set alone,
/// the set of *directed point-to-point links*: port pairs (A, B) such that
/// every packet entering A is unconditionally output to B. Such traffic
/// can safely skip the forwarding engine via a bypass channel.
///
/// Soundness condition for a link A→B:
///   1. there is a rule R with match == {in_port=A} (nothing else) and
///      actions == [OUTPUT(B)], with B a dpdkr port, B != A; and
///   2. every *other* rule that could match a packet entering A (i.e.
///      whose match wildcards in_port or pins it to A) has priority
///      strictly lower than R's.
/// (2) guarantees R dominates: no packet from A can hit another rule, so
/// diverting at the source cannot change forwarding behaviour. The check
/// is conservative — ambiguous same-priority overlaps disable the link —
/// and complete for the catch-all steering rules NFV orchestrators emit.
///
/// Two implementations share those semantics (docs/BYPASS.md):
///  * P2pDetector — the from-scratch reference: every evaluation scans the
///    whole table, O(ports × rules) per FlowMod. Kept as the equivalence
///    oracle for the incremental detector and for one-shot callers.
///  * IncrementalP2pDetector — fleet-scale: consumes the table's
///    TableChangeEvent stream, buckets rules by pinned in_port, and
///    re-evaluates only the ports a change could affect. A rule pinning
///    in_port=A can only enter port A's evaluation, so an event touching
///    only pinned rules dirties exactly those ports; a rule wildcarding
///    in_port enters every port's evaluation, so such events dirty all
///    candidate ports (rare for the catch-all steering rules NFV
///    orchestrators emit). Per event the work is O(ids touched); per
///    refresh it is O(dirty ports × (bucket + wildcard rules)).

namespace hw::vswitch {

struct P2pLink {
  PortId from = kPortNone;
  PortId to = kPortNone;
  RuleId rule = kRuleNone;
  Cookie cookie = 0;
  std::uint16_t priority = 0;

  friend bool operator==(const P2pLink&, const P2pLink&) = default;
};

class P2pDetector {
 public:
  using PortPredicate = std::function<bool(PortId)>;

  /// `is_dpdkr` must return true for ports eligible as bypass endpoints
  /// (VM-attached dpdkr ports; NIC ports are not eligible).
  explicit P2pDetector(PortPredicate is_dpdkr)
      : is_dpdkr_(std::move(is_dpdkr)) {}

  /// Evaluates one candidate source port against the table.
  [[nodiscard]] std::optional<P2pLink> evaluate_port(
      const flowtable::FlowTable& table, PortId from) const;

  /// Evaluates every port in `ports`; returns all currently valid links.
  [[nodiscard]] std::vector<P2pLink> evaluate_all(
      const flowtable::FlowTable& table,
      std::span<const PortId> ports) const;

 private:
  PortPredicate is_dpdkr_;
};

struct DetectorCounters {
  std::uint64_t events = 0;             ///< TableChangeEvents consumed
  std::uint64_t wildcard_events = 0;    ///< events that dirtied every port
  std::uint64_t ports_reevaluated = 0;  ///< dirty ports re-scanned
  std::uint64_t rules_scanned = 0;      ///< bucket entries visited
};

/// Event-driven detector: maintains per-port rule buckets off the
/// FlowTable's change stream and re-evaluates only dirty candidate ports.
/// `refresh()` must be called with the same table the events came from;
/// after it, `links()` equals what P2pDetector::evaluate_all would return
/// (the property suite's equivalence oracle).
class IncrementalP2pDetector {
 public:
  using PortPredicate = P2pDetector::PortPredicate;

  explicit IncrementalP2pDetector(PortPredicate is_dpdkr)
      : is_dpdkr_(std::move(is_dpdkr)) {}

  /// Registers a candidate source port (dirty until the next refresh).
  void add_candidate_port(PortId port);

  /// Unregisters a candidate source port; its link (if any) disappears
  /// from links() at the next refresh. Bucketed rules are kept — the port
  /// may come back (VM re-plug) without a table rebuild.
  void remove_candidate_port(PortId port);

  /// Consumes one committed FlowMod's change event: updates the rule
  /// buckets and marks affected candidate ports dirty. O(ids touched).
  /// `table` must already reflect the event (listeners are notified after
  /// commit, so subscribing this method directly satisfies that).
  void on_event(const flowtable::TableChangeEvent& event,
                const flowtable::FlowTable& table);

  /// Marks every candidate port dirty — for changes the event stream
  /// cannot see (port eligibility flips: retire/enable/disable).
  void invalidate_all() noexcept { all_dirty_ = true; }

  /// Rebuilds buckets and dirties everything from the current table;
  /// recovery path for a detector attached after rules were installed.
  void reset(const flowtable::FlowTable& table);

  /// Re-evaluates dirty candidate ports. Returns the ports whose link
  /// changed (appeared, vanished, retargeted, or was re-ruled) — the
  /// reconcile set for the bypass manager. After this, links() is current.
  [[nodiscard]] std::vector<PortId> refresh(const flowtable::FlowTable& table);

  [[nodiscard]] bool dirty() const noexcept {
    return all_dirty_ || !dirty_.empty();
  }

  /// Current link per source port (valid after refresh()).
  [[nodiscard]] const std::map<PortId, P2pLink>& links() const noexcept {
    return links_;
  }

  [[nodiscard]] const DetectorCounters& counters() const noexcept {
    return counters_;
  }

  /// Bucket-scan evaluation of one port (same semantics as
  /// P2pDetector::evaluate_port, O(bucket + wildcard) instead of
  /// O(rules)). Exposed for the scale benchmark.
  [[nodiscard]] std::optional<P2pLink> evaluate_port(
      const flowtable::FlowTable& table, PortId from) const;

 private:
  /// Bucket key for a rule: its pinned in_port, or kPortNone when the
  /// match wildcards in_port (the rule can match any port).
  static PortId bucket_key(const openflow::Match& match) noexcept {
    return match.has(openflow::kMatchInPort) ? match.in_port_value()
                                             : kPortNone;
  }

  void index_rule(RuleId id, const flowtable::FlowTable& table);
  void drop_rule(RuleId id);
  void mark_dirty(PortId key);

  PortPredicate is_dpdkr_;
  /// Rules bucketed by pinned in_port; kPortNone holds the wildcards.
  std::unordered_map<PortId, std::vector<RuleId>> buckets_;
  std::unordered_map<RuleId, PortId> rule_key_;
  std::vector<PortId> candidate_ports_;
  std::unordered_set<PortId> candidate_set_;
  std::unordered_set<PortId> dirty_;
  bool all_dirty_ = false;
  std::map<PortId, P2pLink> links_;
  mutable DetectorCounters counters_;
};

}  // namespace hw::vswitch
