#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "exec/context.h"
#include "telemetry/trace.h"

/// \file spans.h
/// Host-time spans recorded from outside the program, into the
/// repository's own telemetry::Tracer (its Span takes explicit
/// timestamps, and it exports chrome://tracing JSON).
///
/// Span conventions: `category` names the layer ("exec" for slices,
/// "vswitch", "vm.gen", "vm.fwd", "agent", "openflow", "bypass",
/// "setup"), `track` the context or control row, `a0` the index of the
/// parent span (the slice, or 0 for the setup span), and `a1` the work
/// the call reported (items a poll() returned).

namespace hb {

using hw::TimeNs;

/// Host-time totals of one layer over the folded spans.
struct LayerTime {
  double ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t idle_calls = 0;  ///< calls that reported no work
  double idle_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  [[nodiscard]] hw::telemetry::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] std::uint16_t track(std::string name) {
    return tracer_.register_track(std::move(name));
  }

  /// Records one completed span; `name` and `category` must be literals.
  void record(const char* name, const char* category, std::uint16_t track,
              TimeNs begin_ns, TimeNs end_ns, std::uint64_t arg = 0) noexcept;

  /// The parent index stamped into new spans.
  void set_parent(std::uint64_t parent) noexcept { parent_ = parent; }

  /// Adds every span recorded since the last fold to the per-layer
  /// totals; clears the ring unless it is being kept for export. Returns
  /// false if the ring ever dropped a span.
  [[nodiscard]] bool fold(bool keep);

  /// Writes the retained spans as chrome://tracing JSON, then clears.
  [[nodiscard]] bool export_and_clear(const std::string& path);

  /// Totals keyed by category (slices are "exec").
  [[nodiscard]] const std::map<std::string_view, LayerTime>& totals()
      const noexcept {
    return totals_;
  }
  void reset_totals() { totals_.clear(); }

 private:
  hw::telemetry::Tracer tracer_;
  std::uint64_t parent_ = 0;
  std::size_t folded_ = 0;  ///< retained spans already folded
  TimeNs first_ns_ = 0;
  TimeNs last_ns_ = 0;
  std::map<std::string_view, LayerTime> totals_;
};

/// Registers a context with the runtime through this wrapper to time
/// each poll() as one span. The wrapped context is not owned.
class TimedContext final : public hw::exec::Context {
 public:
  TimedContext(hw::exec::Context& inner, SpanLog& spans,
               const char* category);

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  std::uint32_t poll(hw::exec::CycleMeter& meter) override;

 private:
  hw::exec::Context* inner_;
  SpanLog* spans_;
  const char* category_;
  std::uint16_t track_;
};

}  // namespace hb
