#pragma once

#include <cstddef>

/// \file telemetry.h
/// Scenario-level switches for the telemetry subsystem. Everything
/// defaults OFF: a ChainScenario with a default TelemetryConfig runs the
/// exact pre-telemetry schedule (no spans, no sampling events, no INT
/// bytes) — bench_telemetry_overhead gates on that equivalence.

namespace hw::telemetry {

struct TelemetryConfig {
  /// Span recording (ForwardingEngine bursts, classifier tiers,
  /// revalidator drains, FlowMods, bypass lifecycle).
  bool tracing = false;
  std::size_t trace_capacity = 16384;  ///< span ring entries

  /// Metrics registry + sampling of chain-level gauges every 1 ms of
  /// virtual time.
  bool metrics = false;

  /// INT hop-stamping at every GuestPmd, collection at the sink.
  bool int_stamping = false;
};

}  // namespace hw::telemetry
