#pragma once

#include <cstdint>

/// \file probe.h
/// A short probe, run between slices, that reads how fast this core runs
/// apart from the program under test. On a shared VM the core's clock
/// drifts by tens of percent over seconds, and for stretches of seconds
/// to minutes another tenant on the same physical core takes execution
/// ports (slices then take about 1.5x as long). The probe executes no
/// program code, so a change to the program does not change what it
/// reads:
///
/// - a chain of dependent adds, one cycle each on every x86-64 core,
///   gives the core clock, so CPU time can be read as cycles;
/// - independent add chains, which need every ALU port, run slower
///   against the dependent chain when a sibling thread takes ports.
///
/// Each pair is timed three times. The clock is the fastest dependent
/// chain, since a preemption or interrupt only ever makes it slower; the
/// port ratio is the median of the three, so one pair that a preemption
/// or a clock step split does not move it.

namespace hb {

struct ProbeReading {
  double clock_ghz = 0;   ///< dependent adds per ns
  double port_ratio = 0;  ///< independent-chain time ÷ dependent-chain time
};

class CoreProbe {
 public:
  [[nodiscard]] ProbeReading read();

 private:
  std::uint64_t sink_ = 0;
};

}  // namespace hb
