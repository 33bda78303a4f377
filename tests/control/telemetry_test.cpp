#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/runtime.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace hw::telemetry {
namespace {

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, GaugesAreCreateOnFirstUseAndStable) {
  MetricsRegistry reg;
  Gauge& links = reg.gauge("chain.bypass_links");
  EXPECT_DOUBLE_EQ(links.value(), 0.0);  // no callback yet
  links.set_callback([] { return 2.0; });
  reg.gauge("chain.mempool_in_use");
  // A later registration leaves the first handle where it was.
  Gauge& again = reg.gauge("chain.bypass_links");
  EXPECT_EQ(&links, &again);
  EXPECT_DOUBLE_EQ(again.value(), 2.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, NamesComeOutInRegistrationOrder) {
  MetricsRegistry reg;
  reg.gauge("b.second");
  reg.gauge("a.first");
  reg.gauge("z.third");
  reg.gauge("b.second");  // existing name: no new column
  const std::vector<std::string> names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "b.second");  // registration order, not sorted
  EXPECT_EQ(names[1], "a.first");
  EXPECT_EQ(names[2], "z.third");
}

TEST(MetricsRegistry, GaugeCallbackEvaluatesAtReadTime) {
  MetricsRegistry reg;
  double source = 1.0;
  reg.gauge("chain.mempool_in_use").set_callback([&] { return source; });
  EXPECT_DOUBLE_EQ(reg.gauge("chain.mempool_in_use").value(), 1.0);
  source = 42.0;
  EXPECT_DOUBLE_EQ(reg.gauge("chain.mempool_in_use").value(), 42.0);
}

TEST(MetricsRegistry, PrometheusExportIsOneGaugeFamilyPerMetric) {
  MetricsRegistry reg;
  double links = 2.0;
  reg.gauge("chain.bypass_links").set_callback([&] { return links; });
  reg.gauge("dp.emc_hit_rate").set_callback([] { return 0.125; });
  // Dots become underscores; every family gets the hw_ prefix and a
  // gauge TYPE line, in registration order.
  EXPECT_EQ(reg.export_prometheus(),
            "# TYPE hw_chain_bypass_links gauge\n"
            "hw_chain_bypass_links 2\n"
            "# TYPE hw_dp_emc_hit_rate gauge\n"
            "hw_dp_emc_hit_rate 0.125\n");
  links = 4.0;  // read at export time
  EXPECT_NE(reg.export_prometheus().find("hw_chain_bypass_links 4\n"),
            std::string::npos);
}

// ----------------------------------------------------------------- sampler

TEST(MetricsSampler, SelfSchedulesOnVirtualTime) {
  exec::SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  MetricsRegistry reg;
  std::uint64_t polls = 0;
  reg.gauge("chain.delivered_pkts").set_callback([&] {
    return static_cast<double>(++polls);
  });
  MetricsSampler sampler(reg);
  sampler.start(runtime, 1'000'000);  // 1 ms interval
  runtime.run_for(5'500'000);         // 5.5 ms → samples at 1..5 ms
  EXPECT_EQ(sampler.rows(), 5u);
  EXPECT_EQ(polls, 5u);  // callbacks fire once per sample, not per epoch

  sampler.stop();
  runtime.run_for(3'000'000);
  EXPECT_EQ(sampler.rows(), 5u);  // stop() really stops
}

TEST(MetricsSampler, CsvHasHeaderAndOneRowPerSample) {
  MetricsRegistry reg;
  double delivered = 11;
  reg.gauge("chain.delivered_pkts").set_callback([&] { return delivered; });
  reg.gauge("dp.emc_hit_rate").set_callback([] { return 0.5; });
  MetricsSampler sampler(reg);
  sampler.sample_now(1'000'000);
  delivered = 20;
  sampler.sample_now(2'000'000);
  EXPECT_EQ(sampler.rows(), 2u);
  // Integral values print without a fraction, others with %.6g.
  EXPECT_EQ(sampler.export_csv(),
            "time_ns,chain.delivered_pkts,dp.emc_hit_rate\n"
            "1000000,11,0.5\n"
            "2000000,20,0.5\n");
}

// ------------------------------------------------------------------- tracer

TEST(Tracer, DisabledTracerRecordsNothingAndChargesNothing) {
  Tracer tracer(16);
  exec::CycleMeter meter;
  Span span;
  span.name = "burst";
  tracer.record(span, &meter);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(meter.total_used(), 0u);

  tracer.set_enabled(true);
  tracer.record(span, &meter);
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_GT(meter.total_used(), 0u);
}

TEST(Tracer, OverflowDropsOldestAndCounts) {
  Tracer tracer(4);
  tracer.set_enabled(true);
  for (std::uint64_t i = 0; i < 7; ++i) {
    Span span;
    span.name = "s";
    span.begin_ns = i;
    span.end_ns = i + 1;
    tracer.record(span);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 3u);
  const std::vector<Span> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest three (begin 0,1,2) were dropped; retained are 3..6 in order.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].begin_ns, i + 3) << "slot " << i;
  }
}

TEST(Tracer, RegisterTrackIsIdempotent) {
  Tracer tracer;
  const std::uint16_t pmd0 = tracer.register_track("pmd0");
  const std::uint16_t ctrl = tracer.register_track("ctrl");
  EXPECT_NE(pmd0, ctrl);
  EXPECT_EQ(tracer.register_track("pmd0"), pmd0);
  EXPECT_EQ(tracer.tracks().size(), 2u);
}

#ifndef HW_TRACE_DISABLED
// With -DHW_TRACING=OFF the RAII helper compiles to an empty type and
// records nothing — which is exactly the point of the option, so this
// test only exists in tracing-enabled builds.
TEST(ScopedSpan, NestedSpansHaveContainedIntervalsInnerRecordedFirst) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_span_cost(8);
  exec::CostModel cost;
  exec::CycleMeter meter;
  const std::uint16_t track = tracer.register_track("pmd0");

  {
    ScopedSpan outer(&tracer, "burst", "engine", track, 0, &meter, &cost);
    meter.charge(300);
    {
      ScopedSpan inner(&tracer, "classify", "classify", track, 0, &meter,
                       &cost);
      meter.charge(600);
      inner.set_args(32, 30);
    }
    meter.charge(300);
    outer.set_args(32, 1);
  }

  const std::vector<Span> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];  // destroyed (= recorded) first
  const Span& outer = spans[1];
  EXPECT_STREQ(inner.name, "classify");
  EXPECT_STREQ(outer.name, "burst");
  // Strict nesting: the inner interval sits inside the outer one, with
  // sub-epoch resolution from the meter (all within the same epoch).
  EXPECT_GT(inner.begin_ns, outer.begin_ns);
  EXPECT_LT(inner.end_ns, outer.end_ns);
  EXPECT_LT(inner.begin_ns, inner.end_ns);
  EXPECT_EQ(inner.a0, 32u);
  EXPECT_EQ(inner.a1, 30u);
}
#endif  // HW_TRACE_DISABLED

TEST(ScopedSpan, CancelDropsTheSpan) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan span(&tracer, "drain", "reval", 0, 1000);
    span.cancel();
  }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(ScopedSpan, NullAndDisabledTracersAreNoOps) {
  {
    ScopedSpan span(nullptr, "burst", "engine", 0, 0);
    span.set_args(1);
  }
  Tracer tracer;  // constructed disabled
  {
    ScopedSpan span(&tracer, "burst", "engine", 0, 0);
  }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, ChromeJsonExportIsWellFormedish) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint16_t track = tracer.register_track("pmd0");
  Span span;
  span.name = "burst";
  span.category = "engine";
  span.track = track;
  span.begin_ns = 1500;
  span.end_ns = 4500;
  span.a0 = 32;
  tracer.record(span);
  const std::string json = tracer.export_chrome_json(0, 1'000'000);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"burst\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"engine\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"runEndNs\": 1000000"), std::string::npos);
  // 1500 ns = 1.5 µs, 3000 ns duration = 3 µs.
  EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 3.000"), std::string::npos);
}

TEST(Tracer, NowWithAddsEpochCycles) {
  exec::CostModel cost;
  cost.hz = 2'000'000'000;  // 1 cycle = exactly 0.5 ns
  exec::CycleMeter meter;
  meter.charge(300);
  EXPECT_EQ(Tracer::now_with(10'000, meter, cost), 10'150u);
}

}  // namespace
}  // namespace hw::telemetry
