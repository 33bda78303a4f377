#include "spans.h"

#include <algorithm>
#include <fstream>

#include "clock.h"

namespace hb {

SpanLog::SpanLog(std::size_t capacity) : tracer_(capacity) {
  tracer_.set_enabled(true);
}

void SpanLog::record(const char* name, const char* category,
                     std::uint16_t track, TimeNs begin_ns, TimeNs end_ns,
                     std::uint64_t arg) noexcept {
  tracer_.record(hw::telemetry::Span{.begin_ns = begin_ns,
                                     .end_ns = end_ns,
                                     .name = name,
                                     .category = category,
                                     .track = track,
                                     .a0 = parent_,
                                     .a1 = arg});
}

bool SpanLog::fold(bool keep) {
  if (tracer_.dropped() != 0) return false;
  const std::vector<hw::telemetry::Span> spans = tracer_.snapshot();
  for (std::size_t i = folded_; i < spans.size(); ++i) {
    const hw::telemetry::Span& span = spans[i];
    const auto ns = static_cast<double>(span.end_ns - span.begin_ns);
    LayerTime& layer = totals_[span.category];
    layer.ns += ns;
    ++layer.calls;
    layer.items += span.a1;
    if (span.a1 == 0) {
      ++layer.idle_calls;
      layer.idle_ns += ns;
    }
    if (first_ns_ == 0 || span.begin_ns < first_ns_) first_ns_ = span.begin_ns;
    last_ns_ = std::max(last_ns_, span.end_ns);
  }
  if (keep) {
    folded_ = spans.size();
  } else {
    tracer_.clear();
    folded_ = 0;
  }
  return true;
}

bool SpanLog::export_and_clear(const std::string& path) {
  std::ofstream out(path);
  out << tracer_.export_chrome_json(first_ns_, last_ns_);
  tracer_.clear();
  folded_ = 0;
  return static_cast<bool>(out);
}

TimedContext::TimedContext(hw::exec::Context& inner, SpanLog& spans,
                           const char* category)
    : inner_(&inner),
      spans_(&spans),
      category_(category),
      track_(spans.track(std::string(inner.name()))) {}

std::uint32_t TimedContext::poll(hw::exec::CycleMeter& meter) {
  if (!spans_->tracer().enabled()) return inner_->poll(meter);
  const TimeNs begin = host_ns();
  const std::uint32_t items = inner_->poll(meter);
  spans_->record("poll", category_, track_, begin, host_ns(), items);
  return items;
}

}  // namespace hb
