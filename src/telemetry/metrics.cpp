#include "telemetry/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "exec/runtime.h"

namespace hw::telemetry {

namespace {

/// "dp.emc_hit_rate" -> "hw_dp_emc_hit_rate" (Prometheus metric-name
/// charset).
std::string prom_name(std::string_view name) {
  std::string out = "hw_";
  out.reserve(name.size() + 3);
  for (const char c : name) {
    out.push_back(c == '.' ? '_' : c);
  }
  return out;
}

void append_f(std::string& out, const char* fmt, auto... args) {
  char buf[192];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof buf - 1));
}

}  // namespace

Gauge& MetricsRegistry::gauge(std::string_view name) {
  for (const Named& named : gauges_) {
    if (named.name == name) return *named.gauge;
  }
  gauges_.push_back({std::string(name), std::make_unique<Gauge>()});
  return *gauges_.back().gauge;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (const Named& named : gauges_) out.push_back(named.name);
  return out;
}

std::string MetricsRegistry::export_prometheus() const {
  std::string out;
  for (const Named& named : gauges_) {
    const std::string name = prom_name(named.name);
    append_f(out, "# TYPE %s gauge\n", name.c_str());
    append_f(out, "%s %.6g\n", name.c_str(), named.gauge->value());
  }
  return out;
}

void MetricsSampler::start(exec::Runtime& runtime, TimeNs interval_ns) {
  running_ = true;
  arm(runtime, interval_ns);
}

void MetricsSampler::arm(exec::Runtime& runtime, TimeNs interval_ns) {
  // Self-rearming event chain: each firing records a row, then schedules
  // the next one. stop() lets the final queued event fall through without
  // recording (the sampler may be destroyed only after the runtime, never
  // before — ChainScenario orders its members accordingly).
  runtime.schedule(interval_ns, [this, &runtime, interval_ns] {
    if (!running_) return;
    // Sample rows are correlated with trace spans, whose timestamps are
    // epoch_start-based; keep both on the cross-context clock.
    sample_now(runtime.epoch_start_ns());
    arm(runtime, interval_ns);
  });
}

void MetricsSampler::sample_now(TimeNs now_ns) {
  Sample sample;
  sample.time_ns = now_ns;
  sample.values.reserve(registry_->size());
  for (const auto& named : registry_->gauges_) {
    sample.values.push_back(named.gauge->value());
  }
  samples_.push_back(std::move(sample));
}

std::string MetricsSampler::export_csv() const {
  std::string out = "time_ns";
  for (const auto& name : registry_->names()) {
    out.push_back(',');
    out += name;
  }
  out.push_back('\n');
  for (const auto& sample : samples_) {
    append_f(out, "%" PRIu64, sample.time_ns);
    for (const double v : sample.values) {
      // Counts (links, mbufs, packets) print without a fraction.
      if (v >= 0 && v < 9.0e18 &&
          v == static_cast<double>(static_cast<std::uint64_t>(v))) {
        append_f(out, ",%" PRIu64, static_cast<std::uint64_t>(v));
      } else {
        append_f(out, ",%.6g", v);
      }
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace hw::telemetry
