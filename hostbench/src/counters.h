#pragma once

#include <cstdint>
#include <map>
#include <string>

/// \file counters.h
/// Every work counter the benchmark reads, through public accessors
/// only, as one flat name → value map. Snapshots at the window's edges
/// give per-window deltas; gauges (links, live regions, rules, entries)
/// are read as end values. Keys ending in ".cycles" are modelled CPU
/// cycles, the only values a cost-model change may move.

namespace hb {

class Chain;

using CounterSet = std::map<std::string, std::uint64_t>;

[[nodiscard]] CounterSet read_counters(Chain& chain);

/// `end - start`, key by key.
[[nodiscard]] CounterSet delta(const CounterSet& end, const CounterSet& start);

/// Keys whose values differ between `a` and `b`, ignoring ".cycles" keys
/// when `work_only` is set.
[[nodiscard]] std::string diff_keys(const CounterSet& a, const CounterSet& b,
                                    bool work_only);

}  // namespace hb
