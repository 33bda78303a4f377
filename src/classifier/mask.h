#pragma once

#include "openflow/match.h"
#include "pkt/flow_key.h"

/// \file mask.h
/// Wildcard masks over pkt::FlowKey — the "tuple" of tuple-space search.
/// openflow::MaskSpec, with mask_of and unite, lives beside Match so the
/// flow table can keep its unwildcard sets; the megaflow tier projects,
/// intersects and compares masks here.

namespace hw::classifier {

using openflow::MaskSpec;
using openflow::mask_of;
using openflow::unite;

/// Projects `key` onto the mask: unconstrained fields zeroed, IPv4
/// addresses truncated to their prefix. Two keys with equal projections
/// are indistinguishable to every rule covered by the mask.
[[nodiscard]] pkt::FlowKey apply(const MaskSpec& mask,
                                 const pkt::FlowKey& key) noexcept;

/// True iff some packet in the megaflow's cover set — every key that
/// projects onto `masked_key` under `mask` — could satisfy `match`.
/// Only the fields both sides constrain can rule out intersection (the
/// megaflow leaves every other field free); conservative: returns true
/// when unsure. This is the revalidator's suspect test: entries that
/// cannot intersect a changed match cannot have a new winner.
[[nodiscard]] bool may_intersect(const MaskSpec& mask,
                                 const pkt::FlowKey& masked_key,
                                 const openflow::Match& match) noexcept;

/// may_intersect compiled for one (subtable mask, match) pair:
/// compile_intersect(mask, match).matches(openflow::pack(key)) ==
/// may_intersect(mask, key, match) for every key. The revalidator
/// compiles each merged ADD term and DELETE match once per subtable,
/// looks up the entries it can pass in the subtable's revalidation
/// index of its shape, and tests those entries with it.
[[nodiscard]] openflow::CompiledMatch compile_intersect(
    const MaskSpec& mask, const openflow::Match& match) noexcept;

/// True iff `outer` constrains every field `inner` does, at least as
/// specifically (prefix lengths ≥). The revalidator may repair a megaflow
/// in place only when the re-lookup's unwildcard set is subsumed by the
/// entry's subtable mask — otherwise the cover set is no longer uniform
/// and the entry must be evicted.
[[nodiscard]] bool subsumes(const MaskSpec& outer,
                            const MaskSpec& inner) noexcept;

}  // namespace hw::classifier
