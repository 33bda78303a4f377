#pragma once

#include <cstdint>

#include "common/types.h"

/// \file workload.h
/// Knobs and counters describing the *shape* of offered load, independent
/// of the per-flow L3/L4 identities (those live in TrafficProfile). The
/// defaults reproduce the legacy behaviour exactly: a fixed flow
/// population swept round-robin with no churn — so every existing profile
/// keeps its byte- and order-identical stream.

namespace hw::pkt {

/// How the next flow is picked from the active population.
enum class FlowDistribution : std::uint8_t {
  kRoundRobin,  ///< legacy deterministic sweep (flow i, i+1, ... mod n)
  kUniform,     ///< i.i.d. uniform over the active flows
  kZipf,        ///< Zipf(s) popularity: rank r with P proportional (r+1)^-s
};

/// Whether (and how) flows arrive and depart over virtual time.
enum class ChurnModel : std::uint8_t {
  kNone,     ///< fixed population for the whole run
  kPoisson,  ///< Poisson flow arrivals; mice die by packet budget,
             ///< elephants by exponential lifetime
  kOnOff,    ///< fixed population, but the source gates through
             ///< exponential ON/OFF phases (interrupted Poisson)
};

struct WorkloadConfig {
  FlowDistribution distribution = FlowDistribution::kRoundRobin;
  /// Zipf exponent (only read when distribution == kZipf). Internet flow
  /// popularity measurements cluster around s in [0.9, 1.3].
  double zipf_s = 1.1;

  ChurnModel churn = ChurnModel::kNone;
  /// Mean flow arrival rate for kPoisson, in flows per virtual second.
  double arrival_per_sec = 10000.0;
  /// Hard cap on concurrently active flows under kPoisson (arrivals stall
  /// while the population is full, departures reopen admission).
  std::uint32_t max_active_flows = 65536;
  /// Percent of arriving (and initial) flows that are mice.
  std::uint32_t mice_percent = 80;
  /// A mouse departs after this many packets.
  std::uint32_t mice_packets = 16;
  /// Mean exponential lifetime of an elephant, virtual ns (0 = immortal).
  TimeNs elephant_lifetime_ns = 0;

  /// ON/OFF phase means for kOnOff, virtual ns.
  TimeNs on_mean_ns = 100'000;
  TimeNs off_mean_ns = 100'000;
};

/// Offered-load shape counters, maintained by WorkloadGen and surfaced
/// through ChainMetrics / the telemetry gauges (see docs/WORKLOADS.md).
struct WorkloadStats {
  std::uint64_t offered = 0;          ///< frames selected for synthesis
  std::uint64_t active_flows = 0;     ///< current population size (gauge)
  std::uint64_t flow_arrivals = 0;    ///< flows admitted since start
  std::uint64_t flow_departures = 0;  ///< flows retired since start
  std::uint64_t distinct_flows = 0;   ///< distinct 5-tuples minted so far
};

}  // namespace hw::pkt
