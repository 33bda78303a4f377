#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

/// \file metrics.h
/// The metrics half of the telemetry subsystem (see docs/OBSERVABILITY.md):
///
///   * MetricsRegistry — named gauges, each read through a callback at
///                       sample/export time (the usual shape: a delta-rate
///                       over engine counters, or a live count read from
///                       the component that owns it). Names are lowercase
///                       dotted ("dp.emc_hit_rate"); the Prometheus
///                       exporter rewrites them to hw_dp_emc_hit_rate.
///                       Handles are stable for the registry's lifetime.
///   * MetricsSampler  — periodic virtual-time snapshots of every
///                       registered gauge, self-scheduled on an
///                       exec::Runtime (or driven manually with
///                       sample_now() where no runtime exists), exported as
///                       a CSV time series so benches can emit per-interval
///                       series instead of end-of-run averages.
///
/// Distributions are not registry metrics: one-way latency and INT
/// per-hop transit record into hw::LatencyRecorder (common/latency.h),
/// which each sink fills for every frame it receives.
///
/// Nothing here is thread-safe: registries belong to one scenario and are
/// sampled from the control plane (SimRuntime events run on the driver
/// thread). Nothing records on the data path: a gauge reads its source
/// only when sampled or exported.

namespace hw::exec {
class Runtime;
}

namespace hw::telemetry {

/// A value read through a callback each time it is sampled or exported;
/// a gauge whose callback was never set reads 0.
class Gauge {
 public:
  void set_callback(std::function<double()> fn) { fn_ = std::move(fn); }
  [[nodiscard]] double value() const { return fn_ ? fn_() : 0.0; }

 private:
  std::function<double()> fn_;
};

class MetricsRegistry {
 public:
  /// Returns the gauge registered under `name`, creating it on first
  /// use. Names are lowercase dotted (see docs/OBSERVABILITY.md); every
  /// name registered anywhere in the tree must be documented there —
  /// tools/check_counters.py enforces it.
  Gauge& gauge(std::string_view name);

  [[nodiscard]] std::size_t size() const noexcept { return gauges_.size(); }

  /// All registered names in registration order — the sampler's CSV
  /// column order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Prometheus text exposition, one gauge family per metric. Dots
  /// become underscores and every family is prefixed hw_.
  [[nodiscard]] std::string export_prometheus() const;

 private:
  struct Named {
    std::string name;
    std::unique_ptr<Gauge> gauge;
  };

  friend class MetricsSampler;
  std::vector<Named> gauges_;
};

/// Snapshots every registered gauge (callbacks evaluated at sample time)
/// on a fixed virtual-time interval. start() self-schedules on a Runtime;
/// sample_now() drives it manually (benches without a runtime, e.g.
/// classifier-only sweeps that derive virtual time from a CycleMeter).
class MetricsSampler {
 public:
  explicit MetricsSampler(MetricsRegistry& registry) : registry_(&registry) {}

  /// Begins periodic sampling every `interval_ns` of `runtime`'s virtual
  /// time (first sample one interval from now).
  void start(exec::Runtime& runtime, TimeNs interval_ns);
  void stop() noexcept { running_ = false; }

  /// Takes one sample stamped `now_ns` regardless of any schedule.
  void sample_now(TimeNs now_ns);

  [[nodiscard]] std::size_t rows() const noexcept {
    return samples_.size();
  }

  /// CSV time series: header "time_ns,<metric>,..." then one row per
  /// sample interval.
  [[nodiscard]] std::string export_csv() const;

 private:
  void arm(exec::Runtime& runtime, TimeNs interval_ns);

  struct Sample {
    TimeNs time_ns = 0;
    std::vector<double> values;
  };
  MetricsRegistry* registry_;
  bool running_ = false;
  std::vector<Sample> samples_;
};

}  // namespace hw::telemetry
